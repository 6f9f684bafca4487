"""The gateway front-end: admission, quotas, metering, metrics wiring."""

from __future__ import annotations

import threading
import types

import pytest

from helpers import parse_prometheus
from repro.engine.table import Table
from repro.exceptions import (
    AdmissionRejected,
    GatewayError,
    QuotaExceeded,
    UnauthorizedError,
)
from repro.gateway import Gateway, TenantConfig
from repro.paper_example import build_running_example
from repro.service import QueryService

SQL = ("select T, avg(P) from Hosp join Ins on S=C "
       "where D='stroke' group by T having avg(P)>100")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeService:
    """A stand-in service: records calls, optional blocking/failure."""

    user = "U"

    def __init__(self, cost_usd: float = 0.001,
                 gate: threading.Event | None = None) -> None:
        self.cost_usd = cost_usd
        self.gate = gate
        self.calls: list[tuple[str, str]] = []
        self.started = threading.Event()
        self._lock = threading.Lock()

    def execute(self, sql: str, user: str | None = None):
        self.started.set()
        if self.gate is not None:
            assert self.gate.wait(timeout=30)
        if sql == "boom":
            raise UnauthorizedError("denied", subject=user)
        with self._lock:
            self.calls.append((sql, user or self.user))
        return types.SimpleNamespace(
            sql=sql, user=user, cost_usd=self.cost_usd,
            wall_seconds=0.001, result=Table("R", ("a",), [(1,)]))

    def attach_metrics(self, sink) -> None:
        self.sink = sink

    def health_info(self):
        return {}

    def cache_info(self):
        return {"plans": 0, "fragment_entries": 0,
                "assignment": {"hits": 0, "misses": 0, "size": 0}}


def make_service(rows: int = 12) -> QueryService:
    example = build_running_example()
    hosp = Table("Hosp", ("S", "B", "D", "T"), [
        (f"s{i}", 1950 + i, "stroke" if i % 3 else "flu",
         "tpa" if i % 2 else "surgery")
        for i in range(rows)
    ])
    ins = Table("Ins", ("C", "P"), [
        (f"s{i}", 40.0 + 17.0 * (i % 11)) for i in range(rows)
    ])
    return QueryService(
        example.schema, example.policy, example.subjects,
        example.owners, {"H": {"Hosp": hosp}, "I": {"Ins": ins}},
        user="U",
    )


# ----------------------------------------------------------------------
# End to end over the real service
# ----------------------------------------------------------------------
def test_gateway_end_to_end_matches_direct_execution():
    service = make_service()
    direct = service.execute(SQL).result
    gateway = Gateway(service, [
        TenantConfig("gold", weight=2, user="U"),
        TenantConfig("plain", weight=1, user="Y"),
    ], max_inflight=2)
    try:
        outcomes = [gateway.execute("gold", SQL) for _ in range(3)]
        via_y = gateway.execute("plain", SQL)
        for outcome in outcomes:
            assert sorted(outcome.result.rows) == sorted(direct.rows)
        assert sorted(via_y.result.rows) == sorted(direct.rows)
        # Metering: ledger totals equal the sum of the costed traces.
        spent = sum(outcome.cost_usd for outcome in outcomes)
        assert gateway.ledger.spend_usd("gold") == pytest.approx(spent)
        assert gateway.ledger.query_count("gold") == 3
        assert gateway.account("gold").spent_usd == pytest.approx(spent)
        entries = gateway.ledger.entries("gold")
        assert all(entry.status == "completed" for entry in entries)
        assert all(entry.dispatch_sequence is not None
                   for entry in entries)
    finally:
        gateway.close()


def test_gateway_metrics_cover_required_series():
    service = make_service()
    gateway = Gateway(service, [TenantConfig("t", user="U")],
                      max_inflight=1)
    try:
        gateway.execute("t", SQL)
        gateway.execute("t", SQL)
        families = parse_prometheus(gateway.metrics_text())
    finally:
        gateway.close()
    # Admission / queue / quota series.
    for name in ("repro_gateway_queries_submitted_total",
                 "repro_gateway_queries_completed_total",
                 "repro_gateway_queries_rejected_total",
                 "repro_gateway_queue_depth",
                 "repro_gateway_inflight",
                 "repro_gateway_queue_wait_seconds",
                 "repro_gateway_query_seconds",
                 "repro_gateway_credits_spent_usd_total",
                 "repro_fragment_latency_seconds",
                 "repro_breaker_state",
                 "repro_breaker_trips_total",
                 "repro_cache_hits_total",
                 "repro_cache_misses_total",
                 "repro_cache_entries"):
        assert name in families, f"missing series {name}"
    submitted = {labels["tenant"]: value for _, labels, value
                 in families["repro_gateway_queries_submitted_total"]
                 ["samples"]}
    assert submitted == {"t": 2.0}
    # The runtime sink fed per-subject fragment latencies.
    fragment_count = sum(
        value for name, labels, value
        in families["repro_fragment_latency_seconds"]["samples"]
        if name.endswith("_count"))
    assert fragment_count > 0
    # Breaker series exist per subject, all closed.
    states = {labels["subject"]: value for _, labels, value
              in families["repro_breaker_state"]["samples"]}
    assert states and all(value == 0.0 for value in states.values())
    # Cache hit rates: the second identical query hit the caches.
    hits = {labels["cache"]: value for _, labels, value
            in families["repro_cache_hits_total"]["samples"]}
    assert hits["assignment"] >= 1.0


# ----------------------------------------------------------------------
# Admission control (deterministic, via the fake service)
# ----------------------------------------------------------------------
def test_queue_overflow_rejects_then_recovers():
    gate = threading.Event()
    service = FakeService(gate=gate)
    gateway = Gateway(service, [TenantConfig("t", queue_depth=2)],
                      max_inflight=1)
    try:
        first = gateway.submit("t", "q0")
        assert service.started.wait(timeout=5)  # q0 is now in flight
        second = gateway.submit("t", "q1")
        third = gateway.submit("t", "q2")
        with pytest.raises(AdmissionRejected) as excinfo:
            gateway.submit("t", "q3")
        assert excinfo.value.tenant == "t"
        assert excinfo.value.queue_depth == 2
        gate.set()
        assert first.result(timeout=10).sql == "q0"
        assert second.result(timeout=10).sql == "q1"
        assert third.result(timeout=10).sql == "q2"
        families = parse_prometheus(gateway.metrics_text())
        rejected = {(labels["tenant"], labels["reason"]): value
                    for _, labels, value
                    in families["repro_gateway_queries_rejected_total"]
                    ["samples"]}
        assert rejected[("t", "queue_full")] == 1.0
        # Conservation: submitted == completed + rejected.
        assert len(service.calls) == 3
        (_, _, submitted), = families[
            "repro_gateway_queries_submitted_total"]["samples"]
        (_, _, completed), = families[
            "repro_gateway_queries_completed_total"]["samples"]
        assert (submitted, completed) == (4.0, 3.0)
    finally:
        gate.set()
        gateway.close()


def test_quota_exhaustion_rejects_before_planning():
    service = FakeService(cost_usd=0.4)
    gateway = Gateway(service, [TenantConfig("t", credits_usd=1.0)],
                      max_inflight=1)
    try:
        for index in range(3):  # 1.2 spent: postpaid overdraw on #3
            gateway.execute("t", f"q{index}")
        with pytest.raises(QuotaExceeded) as excinfo:
            gateway.submit("t", "q3")
        refusal = excinfo.value
        assert refusal.reason == "credits"
        assert refusal.spent_usd == pytest.approx(1.2)
        assert refusal.retry_after_seconds is None
        # The service never saw the rejected query: no planning spent.
        assert len(service.calls) == 3
        assert gateway.account("t").balance_usd == pytest.approx(-0.2)
        # A deposit restores admission.
        gateway.account("t").deposit(1.0)
        gateway.execute("t", "q4")
        assert len(service.calls) == 4
    finally:
        gateway.close()


def test_rate_limit_rejects_with_refill_time():
    clock = FakeClock()
    service = FakeService()
    gateway = Gateway(
        service,
        [TenantConfig("t", rate_per_second=1.0, burst=1.0)],
        max_inflight=1, clock=clock)
    try:
        gateway.execute("t", "q0")
        with pytest.raises(QuotaExceeded) as excinfo:
            gateway.submit("t", "q1")
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after_seconds == pytest.approx(1.0)
        clock.advance(1.0)
        gateway.execute("t", "q2")
        assert len(service.calls) == 2
    finally:
        gateway.close()


def test_failed_query_relays_error_and_ledgers_failure():
    service = FakeService()
    gateway = Gateway(service, [TenantConfig("t")], max_inflight=1)
    try:
        future = gateway.submit("t", "boom")
        with pytest.raises(UnauthorizedError):
            future.result(timeout=10)
        entry, = gateway.ledger.entries("t")
        assert entry.status == "failed"
        assert entry.cost_usd == 0.0
        families = parse_prometheus(gateway.metrics_text())
        failed, = families["repro_gateway_queries_failed_total"]["samples"]
        assert failed[2] == 1.0
    finally:
        gateway.close()


def test_unknown_tenant_and_duplicate_config():
    service = FakeService()
    gateway = Gateway(service, [TenantConfig("t")], max_inflight=1)
    try:
        with pytest.raises(ValueError):
            gateway.submit("ghost", "q")
    finally:
        gateway.close()
    with pytest.raises(ValueError):
        Gateway(service, [TenantConfig("a"), TenantConfig("a")])
    with pytest.raises(ValueError):
        Gateway(service, [])
    with pytest.raises(ValueError):
        TenantConfig("t", weight=0)
    with pytest.raises(ValueError):
        TenantConfig("t", queue_depth=0)


def test_close_without_drain_fails_pending_queries():
    gate = threading.Event()
    service = FakeService(gate=gate)
    gateway = Gateway(service, [TenantConfig("t", queue_depth=4)],
                      max_inflight=1)
    inflight = gateway.submit("t", "q0")
    assert service.started.wait(timeout=5)
    pending = gateway.submit("t", "q1")
    gate.set()
    gateway.close(drain=False)
    assert inflight.result(timeout=10).sql == "q0"  # in-flight finishes
    with pytest.raises(GatewayError):
        pending.result(timeout=10)
    with pytest.raises(GatewayError):
        gateway.submit("t", "late")


def test_fair_dispatch_share_under_saturation():
    """Weighted tenants get proportional dispatch shares (fake service)."""
    gate = threading.Event()
    service = FakeService(gate=gate)
    weights = {"gold": 3, "silver": 2, "bronze": 1}
    budget = 12
    gateway = Gateway(
        service,
        [TenantConfig(name, weight=weight, queue_depth=budget)
         for name, weight in weights.items()],
        max_inflight=1)
    try:
        futures = []
        for name in weights:
            for index in range(budget):
                futures.append(gateway.submit(name, f"{name}-{index}"))
        gate.set()
        for future in futures:
            future.result(timeout=30)
        # Window: dispatches while every tenant was still backlogged —
        # bronze (slowest-served) exhausts last, gold first; audit the
        # prefix up to gold's final dispatch.
        entries = sorted(gateway.ledger.all_entries(),
                         key=lambda entry: entry.dispatch_sequence)
        gold_last = max(entry.dispatch_sequence for entry in entries
                        if entry.tenant == "gold")
        window = [entry.tenant for entry in entries
                  if entry.dispatch_sequence <= gold_last]
        total = sum(weights.values())
        for name, weight in weights.items():
            served = window.count(name)
            expected = len(window) * weight / total
            assert abs(served - expected) <= 2.0, (
                f"{name}: {served} served, expected ~{expected:.1f} "
                f"in window of {len(window)}")
    finally:
        gate.set()
        gateway.close()
