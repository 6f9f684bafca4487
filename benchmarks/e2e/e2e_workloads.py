"""The four closed-loop workloads of the end-to-end benchmark.

Each workload owns its fixtures (schema, data, service), generates its
op sequence as a pure function of ``(seed, client, round)``, runs one op
through the program's public API, and knows how to check the reply
against an answer computed by the plaintext single-site executor.

The database contents are fixed (:data:`DATA_SEEDS`); ``--seed`` drives
the order in which the SQL and the policy mutations arrive.  Data drawn
from the seed would leave some seeds with fewer than
:data:`MIN_TEMPLATES_WITH_ROWS` non-empty answers at this scale, which
makes the answer check vacuous, and would change the planned cost from
run to run.
"""

from __future__ import annotations

import math
import random
import re
from typing import NamedTuple

from repro.core.assignment import assign
from repro.core.authorization import Authorization, Subject, SubjectKind
from repro.core.dispatch import dispatch
from repro.core.visibility import verify_assignment
from repro.cost.pricing import PriceList
from repro.engine import Executor
from repro.engine.table import Table
from repro.gateway import Gateway, TenantConfig
from repro.service import QueryService
from repro.sql.planner import plan_query
from repro.tpch import (
    AUTHORITY_TABLES,
    SCENARIOS,
    TPCH_UDFS,
    all_queries,
    all_scenarios,
    build_tpch_schema,
    generate,
    scenario,
)

#: Scale of the generated database the service workloads execute over.
SCALE = 0.002
#: Generator seeds of the two fixed datasets (chosen so that 16 and 15 of
#: the 17 templates return rows).
DATA_SEEDS = (107, 115)
#: Scale of the statistics ``plan_sweep`` plans against (Fig. 9/10).
ESTIMATE_SCALE = 0.1
#: The answer check is vacuous if most templates return nothing.
MIN_TEMPLATES_WITH_ROWS = 14
#: Providers in ``plan_sweep``'s widened UAPmix federation.
WIDE_PROVIDERS = 24
#: The federations ``plan_sweep`` plans every query under.
SWEEP_SETTINGS = SCENARIOS + ("wide",)
#: (query, scenario) pairs whose assignment ``dispatch`` cannot render at
#: :data:`ESTIMATE_SCALE`: the plan re-encrypts the aggregate ``revenue``
#: and ``KeyAssignment.key_for`` has no key for a derived attribute
#: (``KeyManagementError``).  A defect of the program, reported in
#: CHANGES.md; these two ops stop after ``assign``.
DISPATCH_GAPS = frozenset({(5, "UAPenc"), (7, "UAPenc")})

#: The TPC-H reproductions that are plain SQL (the other five are built
#: from operators and only ``plan_sweep`` can run them).
TEMPLATES = tuple(q for q in all_queries() if q.sql is not None)
CHURN_TEMPLATES = tuple(q for q in TEMPLATES
                        if q.number in (3, 5, 10, 12, 18, 19))

#: Counters copied from each ``QueryOutcome`` (see :func:`_counters`).
COUNTER_NAMES = (
    "fragments", "messages", "envelope_bytes", "rows_transferred",
    "fragment_cache_hits", "plan_cached", "assignment_cached",
    "keys_reused", "retries", "failovers",
)


class Op(NamedTuple):
    """One step of a workload's sequence.

    ``kind`` ``"query"`` is an op: timed, counted, checked.  Any other
    kind (a policy mutation, a table refresh) runs inside the timed
    phase, so it costs throughput, but has no latency sample.
    """

    kind: str
    key: str
    payload: object


class Reply(NamedTuple):
    """What the harness keeps of one op's outcome."""

    result: object
    cost_usd: float
    counters: tuple[int, ...]


def _counters(outcome) -> tuple[int, ...]:
    trace = outcome.trace
    return (
        len(trace.fragments_run), trace.messages, trace.envelope_bytes,
        trace.rows_transferred, trace.fragment_cache_hits,
        int(outcome.plan_cached), int(outcome.assignment_cached),
        int(outcome.keys_reused), outcome.retries, len(outcome.failovers),
    )


def _shuffled(items, *parts: object) -> list:
    """``items`` in an order that is a pure function of ``parts``."""
    order = list(items)
    random.Random(":".join(str(part) for part in parts)).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


def same_answer(rows: list[tuple], reference: list[tuple]) -> bool:
    """Row-for-row equality, floats to 1e-6 relative."""
    if len(rows) != len(reference):
        return False
    for row, expected in zip(rows, reference):
        if len(row) != len(expected):
            return False
        for value, wanted in zip(row, expected):
            if isinstance(value, float) or isinstance(wanted, float):
                if value is None or wanted is None or not math.isclose(
                        value, wanted, rel_tol=1e-6, abs_tol=1e-9):
                    return False
            elif value != wanted:
                return False
    return True


def oracle_answers(schema, data) -> dict[int, tuple[tuple, list[tuple]]]:
    """Template number → (columns, rows) from the single-site executor."""
    executor = Executor(data.catalog(), udfs=TPCH_UDFS)
    answers = {}
    for template in TEMPLATES:
        table = executor.execute(plan_query(template.sql, schema))
        answers[template.number] = (table.columns, table.sorted_rows())
    with_rows = sum(1 for _, rows in answers.values() if rows)
    if with_rows < MIN_TEMPLATES_WITH_ROWS:
        raise RuntimeError(
            f"only {with_rows} of {len(TEMPLATES)} templates return rows; "
            "the answer check would be vacuous")
    return answers


def authority_tables(data) -> dict[str, dict[str, Table]]:
    return {authority: {name: data.table(name) for name in names}
            for authority, names in AUTHORITY_TABLES.items()}


def build_service(schema, data) -> QueryService:
    """A UAPenc service over ``data`` at every product default."""
    setting = scenario("UAPenc", schema)
    return QueryService(
        schema, setting.policy, setting.subjects, setting.owners,
        authority_tables(data), user=setting.user, udfs=TPCH_UDFS)


# ---------------------------------------------------------------------------
# Service workloads
# ---------------------------------------------------------------------------


class _Workload:
    """What the harness asks of every workload."""

    name = ""
    why = ""
    clients = 1
    #: Rounds replayed by the traced run.
    trace_rounds = 3
    #: ``peak_rss_mb`` is read once this many timed rounds are done, so it
    #: does not depend on how many rounds a faster build fits in a run; a
    #: build too slow to fit them in ``--seconds`` runs on until they are.
    rss_rounds = 1

    def close(self) -> None:
        pass

    def cache_counters(self) -> dict[str, int]:
        """Monotone cache counters, diffed around the traced replay."""
        return {}

    def layer_counters(self) -> dict[str, float]:
        """Per-layer metrics only this workload can read."""
        return {}

    def scenario_costs(self) -> dict[str, float]:
        """Total planned USD per section-7 scenario, where carried."""
        return {}


class _ServiceWorkload(_Workload):
    """Shared fixtures and checks of the three executing workloads."""

    templates = TEMPLATES

    def setup(self, tick) -> None:
        """Build the fixtures; ``tick()`` between stages lets the harness
        calibrate the host while set-up runs."""
        self.schema = build_tpch_schema(SCALE)
        self.datasets = [generate(SCALE, seed=seed) for seed in DATA_SEEDS]
        tick()
        self.oracles = []
        for data in self.datasets:
            self.oracles.append(oracle_answers(self.schema, data))
            tick()
        self.service = build_service(self.schema, self.datasets[0])
        self.policy = self.service.policy
        tick()

    def execute(self, client: int, sql: str):
        return self.service.execute(sql)

    def run(self, client: int, op: Op):
        if op.kind != "query":
            raise ValueError(f"{self.name} has no {op.kind!r} step")
        template, _dataset = op.payload
        return self.execute(client, template.sql)

    def digest(self, op: Op, outcome) -> Reply:
        return Reply(outcome.result, outcome.cost_usd, _counters(outcome))

    def answer_ok(self, op: Op, reply: Reply) -> bool:
        template, dataset = op.payload
        columns, rows = self.oracles[dataset][template.number]
        return (reply.result.columns == columns
                and same_answer(reply.result.sorted_rows(), rows))

    def audit(self, op: Op, outcome) -> list[str]:
        """Checked round: the assignment must verify under the policy in
        force right now (Def. 4.2), not the one it was planned under."""
        extended = outcome.assignment.extended
        verify_assignment(extended.plan, self.policy, extended.assignment)
        return []

    def cache_counters(self) -> dict[str, int]:
        info = self.service.cache_info()
        flat = {f"assignment_{k}": v for k, v in info["assignment"].items()}
        flat.update({f"edge_{k}": v for k, v in info["edge_tables"].items()})
        flat["executor_hits"] = info["executor_hits"]
        flat["executor_misses"] = info["executor_misses"]
        return flat


class WarmGateway(_ServiceWorkload):
    name = "warm_gateway"
    why = ("steady-state serving, every cache warm: gateway, service memo "
           "look-ups, envelope seal/open and fragment-cache hits do the "
           "work; engine, column crypto and planner almost none")
    clients = 2
    trace_rounds = 12
    rss_rounds = 40
    tenants = ("a", "b")

    def setup(self, tick) -> None:
        super().setup(tick)
        self.gateway = Gateway(
            self.service,
            [TenantConfig("a", weight=2), TenantConfig("b", weight=1)],
            max_inflight=2)

    def close(self) -> None:
        self.gateway.close()

    def execute(self, client: int, sql: str):
        # Callers of Gateway.execute wait for their reply: closed loop.
        return self.gateway.execute(self.tenants[client], sql)

    def round_ops(self, seed: int, client: int, index: int) -> list[Op]:
        return [Op("query", f"Q{t.number}", (t, 0))
                for t in _shuffled(self.templates, seed, self.name, client,
                                   index)]

    def layer_counters(self) -> dict[str, float]:
        text = self.gateway.metrics_text()

        def total(family: str) -> float:
            pattern = rf"^{family}(?:\{{[^}}]*\}})? (\S+)$"
            return sum(float(v) for v in re.findall(pattern, text, re.M))

        waits = total("repro_gateway_queue_wait_seconds_count")
        return {
            "gateway.queue_wait_ms": 1000.0 * total(
                "repro_gateway_queue_wait_seconds_sum") / max(waits, 1.0),
            "gateway.admitted": total(
                "repro_gateway_queries_completed_total"),
            "gateway.refused": total(
                "repro_gateway_queries_rejected_total") + total(
                "repro_gateway_shed_predicted_total"),
        }


class ColdExec(_ServiceWorkload):
    name = "cold_exec"
    why = ("tables are swapped before every round, so plans, assignments "
           "and keys stay warm while every fragment really executes: "
           "engine, column crypto and data movement dominate")
    trace_rounds = 2
    rss_rounds = 6

    def setup(self, tick) -> None:
        super().setup(tick)
        self.tables = [authority_tables(data) for data in self.datasets]

    def round_ops(self, seed: int, client: int, index: int) -> list[Op]:
        dataset = (index + 1) % 2
        return [Op("refresh", "refresh", dataset)] + [
            Op("query", f"Q{t.number}/d{dataset}", (t, dataset))
            for t in _shuffled(self.templates, seed, self.name, client,
                               index)]

    def run(self, client: int, op: Op):
        if op.kind == "refresh":
            self.service.refresh_tables(self.tables[op.payload])
            return None
        return super().run(client, op)


class PolicyChurn(_ServiceWorkload):
    name = "policy_churn"
    why = ("grants and revokes land between queries: touching deltas force "
           "evict, re-plan, re-key, re-execute; disjoint ones must "
           "reconcile and keep; the caches warm_gateway only reads are "
           "written here")
    trace_rounds = 3
    rss_rounds = 8
    templates = CHURN_TEMPLATES
    #: The provider whose rule on ``lineitem`` is revoked and restored.
    provider = "P1"
    #: (subject outside the candidate pool, relation it is granted on).
    #: Four pairs put a fifth of the ops after a touching mutation, which
    #: keeps p90 inside one latency band (see the quantile guard).
    outsiders = (("W0", "orders"), ("W1", "customer"), ("W2", "part"),
                 ("W3", "supplier"))

    def setup(self, tick) -> None:
        super().setup(tick)
        self._revoked = None

    def round_ops(self, seed: int, client: int, index: int) -> list[Op]:
        steps = [("revoke", None, "revoked"), ("restore", None, "restored")]
        for outsider in self.outsiders:
            steps.append(("grant", outsider, "outside"))
            steps.append(("drop", outsider, "outside"))
        ops = []
        for step, (mutation, target, phase) in enumerate(steps):
            ops.append(Op("mutate", mutation, target))
            ops.extend(Op("query", f"Q{t.number}/{phase}", (t, 0))
                       for t in _shuffled(self.templates, seed, self.name,
                                          client, index, step))
        return ops

    def run(self, client: int, op: Op):
        if op.kind != "mutate":
            return super().run(client, op)
        if op.key == "revoke":
            self._revoked = self.policy.revoke("lineitem", self.provider)
        elif op.key == "restore":
            self.policy.grant(self._revoked)
        else:
            subject, relation = op.payload
            if op.key == "grant":
                attributes = self.schema.relation(relation).attribute_names
                self.policy.grant(Authorization(
                    self.schema.relation(relation), (), attributes, subject))
            else:
                self.policy.revoke(relation, subject)
        return None


# ---------------------------------------------------------------------------
# plan_sweep
# ---------------------------------------------------------------------------


class PlanSweep(_Workload):
    name = "plan_sweep"
    why = ("no execution: all 22 plans under UA/UAPenc/UAPmix (the Fig. "
           "9/10 experiment) plus UAPmix over 24 providers; sql, core and "
           "cost do all the work, engine/crypto/distributed/gateway none")
    rss_rounds = 15

    def setup(self, tick) -> None:
        self.schema = build_tpch_schema(ESTIMATE_SCALE)
        self.settings = dict(all_scenarios(self.schema))
        self.settings["wide"] = wide_setting(self.schema)
        tick()
        self.prices = {name: PriceList.from_subjects(setting.subjects)
                       for name, setting in self.settings.items()}
        self.policy = None
        self.reference: dict[str, float] = {}
        self._audited: dict[tuple[int, str], float] = {}

    def round_ops(self, seed: int, client: int, index: int) -> list[Op]:
        return _shuffled(
            (Op("query", f"Q{q.number}/{name}", (q, name))
             for q in all_queries() for name in SWEEP_SETTINGS),
            seed, self.name, client, index)

    def run(self, client: int, op: Op):
        query, name = op.payload
        setting = self.settings[name]
        plan = query.plan(self.schema)
        result = assign(plan, setting.policy, setting.subject_names,
                        self.prices[name], user=setting.user,
                        owners=setting.owners)
        if (query.number, name) in DISPATCH_GAPS:
            return result, None
        fragments = dispatch(result.extended, result.keys,
                             owners=setting.owners, user=setting.user)
        return result, fragments

    def digest(self, op: Op, outcome) -> Reply:
        result, fragments = outcome
        rendered = 1 if fragments is None else len(fragments.fragments)
        return Reply(rendered, result.cost.total_usd,
                     (0,) * len(COUNTER_NAMES))

    def answer_ok(self, op: Op, reply: Reply) -> bool:
        """Planning is deterministic: every repeat must price the op
        exactly as its first execution (the warm round) did."""
        expected = self.reference.setdefault(op.key, reply.cost_usd)
        return reply.result >= 1 and math.isclose(
            reply.cost_usd, expected, rel_tol=1e-12)

    def audit(self, op: Op, outcome) -> list[str]:
        query, name = op.payload
        result, _ = outcome
        verify_assignment(result.extended.plan, self.settings[name].policy,
                          result.extended.assignment)
        self._audited[(query.number, name)] = result.cost.total_usd
        costs = [self._audited.get((query.number, s)) for s in SCENARIOS]
        if None in costs:
            return []
        ua, enc, mix = costs
        if ua + 1e-15 >= enc >= mix - 1e-15:
            return []
        return [f"Q{query.number}: UA {ua} >= UAPenc {enc} >= UAPmix {mix} "
                "does not hold"]

    def scenario_costs(self) -> dict[str, float]:
        """Total planned USD of the 22 queries per §7 scenario."""
        return {name: sum(cost for key, cost in self.reference.items()
                          if key.endswith("/" + name))
                for name in SCENARIOS}


def wide_setting(schema):
    """UAPmix with every provider rule copied onto P4..P24."""
    base = scenario("UAPmix", schema)
    extra = [Subject(f"P{i}", SubjectKind.PROVIDER)
             for i in range(4, WIDE_PROVIDERS + 1)]
    template_rules = [rule for rule in base.policy.rules()
                      if rule.subject == "P1"]
    for subject in extra:
        for rule in template_rules:
            base.policy.grant(Authorization(
                schema.relation(rule.relation), rule.plaintext,
                rule.encrypted, subject))
    return type(base)(name="wide", policy=base.policy,
                      subjects=base.subjects + tuple(extra),
                      user=base.user, owners=base.owners)


WORKLOADS = {cls.name: cls
             for cls in (WarmGateway, ColdExec, PlanSweep, PolicyChurn)}
