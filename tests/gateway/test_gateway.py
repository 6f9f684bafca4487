"""The gateway front-end: admission, quotas, metering, metrics wiring."""

from __future__ import annotations

import sys
import threading

import pytest

from helpers import (
    FakeClock,
    FakeService,
    parse_prometheus,
    steady_latency,
    submitted_and_ended,
)
from repro.core.budget import QueryBudget
from repro.engine.table import Table
from repro.exceptions import (
    AdmissionRejected,
    DeadlineExceededError,
    GatewayError,
    QueryCancelledError,
    QuotaExceeded,
    UnauthorizedError,
)
from repro.gateway import Gateway, TenantConfig
from repro.paper_example import build_running_example
from repro.service import QueryService

SQL = ("select T, avg(P) from Hosp join Ins on S=C "
       "where D='stroke' group by T having avg(P)>100")


def make_service(rows: int = 12, **kwargs) -> QueryService:
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
        user="U", **kwargs,
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
        entries = gateway.ledger.entries("gold")
        assert all(entry.status == "completed" for entry in entries)
        assert all(entry.dispatch_sequence is not None
                   for entry in entries)
    finally:
        gateway.close()


def test_an_unbudgeted_query_is_cancelled_queued_or_running():
    """With no budget and no tenant default a query still carries a
    token: its future's ``cancellation_token`` stops the running query
    at its next checkpoint (after the provider H answers) and the
    queued one at dequeue, before any planning."""
    gate, asked = threading.Event(), threading.Event()

    def sleeper(seconds):
        asked.set()
        assert gate.wait(timeout=30)

    service = make_service(fault_injector=steady_latency(0.1, ["H"]),
                           sleeper=sleeper)
    gateway = Gateway(service, [TenantConfig("t", user="U")],
                      max_inflight=1)
    wheres = []
    try:
        running, queued = (gateway.submit("t", SQL) for _ in range(2))
        assert asked.wait(timeout=30)
        for future in (running, queued):
            assert future.cancellation_token.budget == QueryBudget()
            future.cancellation_token.cancel("no longer needed")
        gate.set()
        for future in (running, queued):
            with pytest.raises(QueryCancelledError) as raised:
                future.result(timeout=30)
            wheres.append(raised.value.where)
    finally:
        gate.set()
        gateway.close()
    assert wheres == ["runtime:fragment reqH response", "gateway:dequeue"]
    assert [entry.status for entry in gateway.ledger.entries("t")] \
        == ["cancelled", "cancelled"]


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
    # Per-subject fragment latencies, read off the queries' traces.
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


def test_gateway_keeps_time_on_the_service_clock():
    """Half a fake second of provider latency per fragment, slept on a
    clock nothing else moves, against a one-second tenant deadline: the
    token the gateway mints counts on the service's clock, so the query
    dies at exactly one (fake) second and is ledgered as a deadline.  On
    a clock of its own the gateway's token would read a few real
    milliseconds and the query would complete past its deadline."""
    clock = FakeClock()
    service = make_service(
        clock=clock, sleeper=clock.sleep, fault_injector=steady_latency(
            0.5, build_running_example().subject_names))
    gateway = Gateway(service, [TenantConfig("t", deadline_seconds=1.0)],
                      max_inflight=1)
    try:
        with pytest.raises(DeadlineExceededError):
            gateway.execute("t", SQL)
    finally:
        gateway.close()
    entry, = gateway.ledger.entries("t")
    assert (entry.status, entry.wall_seconds) == ("deadline", 1.0)
    assert clock.now == 1.0


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
    service = FakeService(clock=clock)
    gateway = Gateway(
        service,
        [TenantConfig("t", rate_per_second=1.0, burst=1.0)],
        max_inflight=1)
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


def test_close_without_drain_ledgers_every_dropped_query():
    """A dropped query is an ending: each is ledgered ``failed`` at no
    cost, so submitted still equals the sum of the ways a query ends."""
    gate = threading.Event()
    service = FakeService(gate=gate)
    gateway = Gateway(service, [TenantConfig("t", queue_depth=4)],
                      max_inflight=1)
    inflight = gateway.submit("t", "q0")
    assert service.started.wait(timeout=5)
    queued = [gateway.submit("t", f"q{index}") for index in (1, 2, 3)]
    # close() joins the worker, which holds q0 until the gate opens.
    closer = threading.Thread(target=gateway.close, kwargs={"drain": False})
    closer.start()
    for future in queued:
        with pytest.raises(GatewayError):
            future.result(timeout=10)
    gate.set()
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert inflight.result(timeout=10).sql == "q0"
    dropped = [(entry.sql, entry.status, entry.cost_usd,
                entry.wall_seconds, entry.dispatch_sequence)
               for entry in gateway.ledger.entries("t") if entry.sql != "q0"]
    assert dropped == [(f"q{index}", "failed", 0.0, 0.0, None)
                       for index in (1, 2, 3)]
    families = parse_prometheus(gateway.metrics_text())
    assert submitted_and_ended(families) == (4.0, 4.0)


def test_concurrent_scrapes_never_move_a_total_backwards():
    """Clients submit while another thread scrapes: no ``_total`` sample
    and no histogram ``_count`` goes down from one scrape to the next, no
    scrape ends more queries than it submitted, and once the gateway is
    closed every submitted query has ended."""
    gateway = Gateway(FakeService(wall_seconds=0.0005), [
        TenantConfig("a", queue_depth=2),
        TenantConfig("b", weight=2, queue_depth=2),
    ], max_inflight=2)
    clients_done = threading.Event()
    scrapes: list[int] = []
    regressions: list[tuple] = []

    def scrape() -> None:
        previous: dict[tuple, float] = {}
        while not clients_done.is_set() or len(scrapes) < 100:
            families = parse_prometheus(gateway.metrics_text())
            current = {(name, tuple(sorted(labels.items()))): value
                       for family in families.values()
                       for name, labels, value in family["samples"]
                       if name.endswith(("_total", "_count"))}
            regressions.extend(
                (key, value, current.get(key))
                for key, value in previous.items()
                if current.get(key, -1.0) < value)
            submitted, ended = submitted_and_ended(families)
            if ended > submitted:
                regressions.append(("ended > submitted", submitted, ended))
            previous = current
            scrapes.append(1)

    def client(tenant: str) -> None:
        for index in range(60):
            try:
                gateway.submit(tenant, "boom" if index % 7 == 0
                               else f"select {index}")
            except AdmissionRejected:
                pass

    scraper = threading.Thread(target=scrape)
    clients = [threading.Thread(target=client, args=(tenant,))
               for tenant in ("a", "a", "b", "b")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        scraper.start()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30)
        clients_done.set()
        scraper.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        clients_done.set()
        gateway.close()
    assert not any(thread.is_alive() for thread in [scraper, *clients])
    assert len(scrapes) >= 100
    assert regressions == []
    submitted, ended = submitted_and_ended(
        parse_prometheus(gateway.metrics_text()))
    assert submitted == ended == 240.0


def by_label(families: dict, sample: str, label: str) -> dict[str, float]:
    """Every ``sample`` series of a parsed scrape, by its ``label``."""
    return {labels[label]: value for family in families.values()
            for name, labels, value in family["samples"] if name == sample}


def test_scrape_reads_queue_depth_and_inflight_from_the_controller():
    gate = threading.Event()
    service = FakeService(gate=gate)
    gateway = Gateway(service, [TenantConfig("a", queue_depth=4),
                                TenantConfig("b")], max_inflight=1)
    try:
        held = gateway.submit("a", "q0")
        assert service.started.wait(timeout=5)
        queued = [gateway.submit("a", "q1"), gateway.submit("a", "q2")]
        during = parse_prometheus(gateway.metrics_text())
        gate.set()
        for future in [held, *queued]:
            future.result(timeout=10)
    finally:
        gate.set()
        gateway.close()
    after = parse_prometheus(gateway.metrics_text())
    for families, inflight, depths in ((during, 1.0, {"a": 2.0, "b": 0.0}),
                                       (after, 0.0, {"a": 0.0, "b": 0.0})):
        (_, _, value), = families["repro_gateway_inflight"]["samples"]
        assert value == inflight
        assert by_label(families, "repro_gateway_queue_depth", "tenant") \
            == depths


def test_scrape_reads_breaker_and_cache_series_from_the_service():
    class ReportingService(FakeService):
        def health_info(self):
            return {"X": {"dead": False, "state": "half_open",
                          "breaker_trips": 2},
                    "Y": {"dead": True, "state": "open",
                          "breaker_trips": 1}}

        def cache_info(self):
            return {"plans": 3, "fragment_entries": 7,
                    "assignment": {"hits": 5, "misses": 2, "size": 4}}

    gateway = Gateway(ReportingService(), [TenantConfig("t")],
                      max_inflight=1)
    try:
        families = parse_prometheus(gateway.metrics_text())
    finally:
        gateway.close()
    assert by_label(families, "repro_breaker_state", "subject") \
        == {"X": 1.0, "Y": 3.0}
    assert by_label(families, "repro_breaker_trips_total", "subject") \
        == {"X": 2.0, "Y": 1.0}
    assert by_label(families, "repro_cache_hits_total", "cache") \
        == {"assignment": 5.0}
    assert by_label(families, "repro_cache_misses_total", "cache") \
        == {"assignment": 2.0}
    assert by_label(families, "repro_cache_entries", "cache") \
        == {"plans": 3.0, "assignment": 4.0, "fragments": 7.0}


def test_tenant_histograms_exist_for_every_configured_tenant():
    """Built at construction: a tenant that never ran a query still has
    zero-valued queue-wait, query-seconds and budget-fraction series."""
    gateway = Gateway(FakeService(), [TenantConfig("a"), TenantConfig("b")],
                      max_inflight=1)
    try:
        gateway.execute("a", "select 1")
        families = parse_prometheus(gateway.metrics_text())
    finally:
        gateway.close()
    for family, ran in (("repro_gateway_queue_wait_seconds", 1.0),
                        ("repro_gateway_query_seconds", 1.0),
                        ("repro_gateway_budget_remaining_fraction", 0.0)):
        assert by_label(families, f"{family}_count", "tenant") \
            == {"a": ran, "b": 0.0}, family


def test_fragment_latency_has_a_series_per_subject_on_first_use():
    class TracingService(FakeService):
        def execute(self, sql, user=None, token=None):
            outcome = super().execute(sql, user=user, token=token)
            outcome.trace.executions.extend([("X", 0.002), ("Y", 0.02),
                                             ("X", 0.004)])
            return outcome

    gateway = Gateway(TracingService(), [TenantConfig("t")],
                      max_inflight=1)
    try:
        before = parse_prometheus(gateway.metrics_text())
        gateway.execute("t", "select 1")
        after = parse_prometheus(gateway.metrics_text())
    finally:
        gateway.close()
    family = "repro_fragment_latency_seconds"
    assert before[family]["samples"] == []
    assert by_label(after, f"{family}_count", "subject") \
        == {"X": 2.0, "Y": 1.0}
    assert by_label(after, f"{family}_sum", "subject") \
        == pytest.approx({"X": 0.006, "Y": 0.02})


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
