"""Shared helpers importable from any test module."""

from __future__ import annotations

import os
import re
import threading
import time
import types

from repro.core.operators import BaseRelationNode, Udf
from repro.core.plan import QueryPlan
from repro.core.schema import Relation, Schema
from repro.distributed.faults import FaultInjector, FaultSpec
from repro.distributed.runtime import ExecutionTrace
from repro.engine.table import Table
from repro.exceptions import UnauthorizedError
from repro.tpch import TpchData
from repro.tpch.schema import AUTHORITY_TABLES

#: The one soak switch: ``REPRO_SOAK=1`` loads the ``soak`` Hypothesis
#: profile (``conftest.py``) and gives every :func:`draws` its full count.
SOAK = os.environ.get("REPRO_SOAK") == "1"


def draws(full: int, tier1: int) -> int:
    """How many examples (or cases) a long property runs: ``full`` under
    the soak switch, else tier-1's derandomized slice ``tier1``."""
    return full if SOAK else tier1


#: One exposition sample: name, optional {labels}, value.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[^ ]+)$")
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse (and structurally validate) Prometheus text exposition.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(name, labels_dict, value), ...]}}``.  Raises ``AssertionError``
    on malformed lines, samples without a preceding TYPE, or
    non-cumulative histogram buckets — the shared gate for every test
    that asserts "emits valid Prometheus text format".
    """
    families: dict[str, dict] = {}
    current: str | None = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {"samples": []})["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert kind in ("counter", "gauge", "histogram"), line
            families.setdefault(name, {"samples": []})["type"] = kind
            current = name
            continue
        assert not line.startswith("#"), f"unknown comment line: {line!r}"
        match = _SAMPLE_LINE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name = match.group("name")
        assert current is not None and name.startswith(current), \
            f"sample {name!r} outside its family block"
        labels = dict(_LABEL_PAIR.findall(match.group("labels") or ""))
        value = float(match.group("value"))
        families[current]["samples"].append((name, labels, value))
    for name, family in families.items():
        assert "type" in family, f"{name} has no TYPE line"
        assert "help" in family, f"{name} has no HELP line"
        if family["type"] == "histogram":
            _check_histogram(name, family["samples"])
    return families


#: The gateway families a submitted query ends in, exactly one of them.
ENDINGS = tuple(f"repro_gateway_{name}_total" for name in (
    "queries_completed", "queries_failed", "cancelled",
    "deadline_exceeded", "queries_rejected", "shed_predicted"))


def submitted_and_ended(families: dict[str, dict]) -> tuple[float, float]:
    """A parsed gateway scrape's submitted total and the sum of its
    :data:`ENDINGS` — equal once nothing is queued or in flight."""

    def total(family: str) -> float:
        return sum(value for _, _, value in families[family]["samples"])

    return (total("repro_gateway_queries_submitted_total"),
            sum(total(family) for family in ENDINGS))


def _check_histogram(name: str, samples: list) -> None:
    """Bucket series must be cumulative and end at +Inf == _count."""
    by_labelset: dict[tuple, list[tuple[str, float]]] = {}
    counts: dict[tuple, float] = {}
    for sample_name, labels, value in samples:
        key = tuple(sorted((k, v) for k, v in labels.items()
                           if k != "le"))
        if sample_name == f"{name}_bucket":
            by_labelset.setdefault(key, []).append((labels["le"], value))
        elif sample_name == f"{name}_count":
            counts[key] = value
    for key, buckets in by_labelset.items():
        cumulative = [value for _, value in buckets]
        assert cumulative == sorted(cumulative), \
            f"{name} buckets not cumulative for {key}"
        assert buckets[-1][0] == "+Inf", f"{name} missing +Inf bucket"
        assert buckets[-1][1] == counts[key], \
            f"{name} +Inf bucket != _count for {key}"


def make_udf_plan(schema_attrs: int = 3) -> tuple[QueryPlan, Schema]:
    """A small plan with a udf, for requirement/extension tests."""
    schema = Schema()
    relation = schema.add(Relation(
        "M", [f"m{i}" for i in range(schema_attrs)], cardinality=50,
    ))
    leaf = BaseRelationNode(relation)
    udf = Udf(leaf, ["m0", "m1"], "m0", encrypted_capable=False,
              name="model")
    return QueryPlan(udf), schema


def authority_tables(data: TpchData) -> dict[str, dict[str, Table]]:
    """Authority → {relation → table}: each TPC-H table at its owner."""
    return {authority: {name: data.table(name) for name in names}
            for authority, names in AUTHORITY_TABLES.items()}


def steady_latency(seconds: float, subjects,
                   injector: FaultInjector | None = None) -> FaultInjector:
    """``injector`` (a fresh one by default) delaying every execution of
    each of ``subjects`` (names or :class:`Subject` objects) by
    ``seconds`` — the runtime's one source of simulated latency."""
    injector = injector or FaultInjector()
    for subject in subjects:
        injector.set_fault(getattr(subject, "name", subject), FaultSpec(
            latency_spike_seconds=seconds, latency_spike_rate=1.0))
    return injector


class FakeClock:
    """Time that moves only when a test advances it or sleeps on it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    sleep = advance


class FakeService:
    """A stand-in :class:`~repro.service.QueryService` behind a gateway.

    Records the SQL it runs, optionally blocks on ``gate`` until the test
    opens it, honours the gateway's token at entry, raises
    ``UnauthorizedError`` for the SQL ``"boom"`` and keeps time on
    ``clock`` — which the gateway reads, as it reads a real service's.
    """

    user = "U"

    def __init__(self, wall_seconds: float = 0.001,
                 cost_usd: float = 0.001,
                 gate: threading.Event | None = None,
                 clock=time.monotonic) -> None:
        self.wall_seconds = wall_seconds
        self.cost_usd = cost_usd
        self.gate = gate
        self.clock = clock
        self.calls: list[str] = []
        self.started = threading.Event()
        self._lock = threading.Lock()

    def execute(self, sql: str, user: str | None = None, token=None):
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if token is not None:
            token.check("service:admitted")
        if sql == "boom":
            raise UnauthorizedError("denied", subject=user)
        with self._lock:
            self.calls.append(sql)
        return types.SimpleNamespace(
            sql=sql, user=user, cost_usd=self.cost_usd,
            wall_seconds=self.wall_seconds,
            result=Table("R", ("a",), [(1,)]), trace=ExecutionTrace())

    def health_info(self):
        return {}

    def cache_info(self):
        return {"plans": 0, "fragment_entries": 0,
                "assignment": {"hits": 0, "misses": 0, "size": 0}}
