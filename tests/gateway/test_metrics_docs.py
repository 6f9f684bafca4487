"""The metrics the gateway exports are the ones the operator docs name.

One gateway over the fake service is driven through every way a query
can end — completed, failed, cancelled or shed at dequeue, out of
deadline in flight, refused for a full queue, the rate or credits, shed
on a predicted deadline or cost — and its scrape is checked two ways:
every ``repro_*`` series ``docs/operations.md`` names is rendered and
every rendered family is named there, and nothing is lost (each
submitted query is counted under exactly one way of ending).
"""

from __future__ import annotations

import itertools
import re
import threading
from pathlib import Path

import pytest

from helpers import (
    FakeClock,
    FakeService,
    parse_prometheus,
    submitted_and_ended,
)
from repro.core.budget import QueryBudget
from repro.exceptions import (
    AdmissionRejected,
    DeadlineExceededError,
    QueryCancelledError,
    QuotaExceeded,
    SheddedError,
    UnauthorizedError,
)
from repro.gateway import Gateway, TenantConfig

OPERATIONS = Path(__file__).resolve().parents[2] / "docs" / "operations.md"

#: ``repro_`` names as the docs spell them, ``{a,b}`` alternatives
#: included; a ``{label=…}`` selector is not part of the name.
_DOC_SERIES = re.compile(r"repro_(?:[a-z_]|\{[a-z_,]+\})+")


def documented_series(text: str) -> set[str]:
    """Every series name ``text`` spells, alternatives expanded."""
    names = set()
    for spelled in _DOC_SERIES.findall(text):
        parts = re.split(r"\{([a-z_,]+)\}", spelled)
        choices = [part.split(",") if index % 2 else [part]
                   for index, part in enumerate(parts)]
        names.update("".join(pick) for pick in itertools.product(*choices))
    return names


def drive_every_outcome() -> str:
    """One deterministic pass through every way a query can end; the
    gateway's scrape afterwards."""
    clock = FakeClock()
    gate = threading.Event()
    gate.set()
    service = FakeService(gate=gate, clock=clock)
    gateway = Gateway(service, [
        TenantConfig("main", queue_depth=2),
        TenantConfig("rated", rate_per_second=1.0, burst=1.0),
        TenantConfig("broke", credits_usd=0.0005),
    ], max_inflight=1)
    try:
        gateway.execute("main", "select 1")
        with pytest.raises(SheddedError, match="predicted"):
            gateway.submit("main", "select 1",
                           budget=QueryBudget(deadline_seconds=0.0005))
        with pytest.raises(SheddedError, match="cost"):
            gateway.submit("main", "select 1",
                           budget=QueryBudget(cost_ceiling_usd=0.0005))
        with pytest.raises(UnauthorizedError):
            gateway.execute("main", "boom")
        # Out of deadline in flight: the service holds the query at its
        # gate while the clock passes the deadline.
        gate.clear()
        service.started.clear()
        late = gateway.submit("main", "select late",
                              budget=QueryBudget(deadline_seconds=1.0))
        assert service.started.wait(timeout=10)
        clock.advance(5.0)
        gate.set()
        with pytest.raises(DeadlineExceededError):
            late.result(timeout=10)
        # Cancelled and expired while queued behind a blocker; the queue
        # then refuses a third.
        gate.clear()
        service.started.clear()
        blocker = gateway.submit("main", "select 2")
        assert service.started.wait(timeout=10)
        cancelled = gateway.submit("main", "select 3",
                                   budget=QueryBudget(deadline_seconds=60))
        cancelled.cancellation_token.cancel("no longer needed")
        expired = gateway.submit("main", "select 4",
                                 budget=QueryBudget(deadline_seconds=1.0))
        with pytest.raises(AdmissionRejected):
            gateway.submit("main", "select 5")
        clock.advance(5.0)
        gate.set()
        blocker.result(timeout=10)
        with pytest.raises(QueryCancelledError):
            cancelled.result(timeout=10)
        with pytest.raises(DeadlineExceededError, match="dequeue"):
            expired.result(timeout=10)
        gateway.execute("rated", "select 1")
        with pytest.raises(QuotaExceeded, match="rate"):
            gateway.submit("rated", "select 1")
        gateway.execute("broke", "select 1")  # postpaid: overdraws
        with pytest.raises(QuotaExceeded, match="credit"):
            gateway.submit("broke", "select 1")
    finally:
        gateway.close()
    return gateway.metrics_text()


def test_the_docs_name_exactly_the_series_the_gateway_renders():
    rendered = set(parse_prometheus(drive_every_outcome()))
    documented = documented_series(OPERATIONS.read_text())
    assert documented - rendered == set(), "documented, not rendered"
    assert rendered - documented == set(), "rendered, not documented"


def test_every_submitted_query_ends_exactly_one_way():
    families = parse_prometheus(drive_every_outcome())
    assert submitted_and_ended(families) == (13.0, 13.0)
    by_reason = {labels["reason"]: value for _, labels, value
                 in families["repro_gateway_queries_rejected_total"]
                 ["samples"]}
    assert by_reason == {"queue_full": 1.0, "rate": 1.0, "credits": 1.0}
    deadline = {labels["tenant"]: value for _, labels, value
                in families["repro_gateway_deadline_exceeded_total"]
                ["samples"]}
    assert deadline == {"main": 2.0}  # one at dequeue, one in flight
