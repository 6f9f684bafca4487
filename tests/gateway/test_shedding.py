"""Budgets at the gateway: dequeue shedding, predictive admission.

Covers the graceful-degradation half of the deadline work: queued
entries that die before dispatch are settled without planning, the
latency/cost predictor refuses work that cannot meet its budget, tenant
default budgets merge under per-query requests, and
``close(drain=True)`` flushes an expired backlog instead of running it.
"""

from __future__ import annotations

import threading

import pytest

from helpers import FakeClock, FakeService, parse_prometheus
from repro.core.budget import CancellationToken, QueryBudget
from repro.exceptions import (
    DeadlineExceededError,
    QueryCancelledError,
    SheddedError,
)
from repro.gateway import Gateway, TenantConfig, TenantQuota


def make_gateway(service, clock, **kwargs):
    """A one-worker gateway over ``service``, which keeps time on
    ``clock`` (the gateway reads the service's clock)."""
    service.clock = clock
    tenants = kwargs.pop("tenants", [TenantConfig("t", user="U")])
    return Gateway(service, tenants, max_inflight=1, **kwargs)


# ----------------------------------------------------------------------
# Shed at dequeue — expired or cancelled while queued
# ----------------------------------------------------------------------
def test_expired_in_queue_is_shed_before_planning():
    clock = FakeClock()
    gate = threading.Event()
    service = FakeService(gate=gate)
    gateway = make_gateway(service, clock)
    try:
        blocker = gateway.submit("t", "select 1")
        doomed = gateway.submit(
            "t", "select 2", budget=QueryBudget(deadline_seconds=1.0))
        clock.advance(5.0)  # the deadline lapses while still queued
        gate.set()
        blocker.result(timeout=30)
        with pytest.raises(DeadlineExceededError) as excinfo:
            doomed.result(timeout=30)
        assert excinfo.value.where == "gateway:dequeue"
    finally:
        gateway.close()
    assert service.calls == ["select 1"]  # never reached the service
    statuses = {entry.sql: entry.status
                for entry in gateway.ledger.entries("t")}
    assert statuses["select 2"] == "shed"
    families = parse_prometheus(gateway.metrics_text())
    samples = families["repro_gateway_deadline_exceeded_total"]["samples"]
    assert [(labels["tenant"], value)
            for _, labels, value in samples] == [("t", 1.0)]


def test_cancelled_in_queue_is_settled_without_execution():
    clock = FakeClock()
    gate = threading.Event()
    service = FakeService(gate=gate)
    gateway = make_gateway(service, clock)
    try:
        blocker = gateway.submit("t", "select 1")
        doomed = gateway.submit(
            "t", "select 2", budget=QueryBudget(deadline_seconds=60.0))
        doomed.cancellation_token.cancel("changed my mind")
        gate.set()
        blocker.result(timeout=30)
        with pytest.raises(QueryCancelledError, match="changed my mind"):
            doomed.result(timeout=30)
    finally:
        gateway.close()
    assert service.calls == ["select 1"]
    statuses = {entry.sql: entry.status
                for entry in gateway.ledger.entries("t")}
    assert statuses["select 2"] == "cancelled"
    families = parse_prometheus(gateway.metrics_text())
    samples = families["repro_gateway_cancelled_total"]["samples"]
    assert [(labels["tenant"], value)
            for _, labels, value in samples] == [("t", 1.0)]


def test_close_drain_settles_expired_backlog_instead_of_running_it():
    clock = FakeClock()
    gate = threading.Event()
    service = FakeService(gate=gate)
    gateway = make_gateway(service, clock)
    blocker = gateway.submit("t", "select 1")
    doomed = [gateway.submit("t", f"select {i}",
                             budget=QueryBudget(deadline_seconds=1.0))
              for i in range(2, 5)]
    clock.advance(10.0)
    gate.set()
    gateway.close(drain=True)
    assert blocker.result(timeout=1).result.rows == [(1,)]
    for future in doomed:
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=1)
    assert service.calls == ["select 1"]


# ----------------------------------------------------------------------
# Predictive shedding at submit
# ----------------------------------------------------------------------
def test_predicted_slow_query_is_shed_at_submit():
    clock = FakeClock()
    service = FakeService(wall_seconds=5.0)
    gateway = make_gateway(service, clock)
    try:
        gateway.execute("t", "select big")  # teaches the predictor
        with pytest.raises(SheddedError) as excinfo:
            gateway.submit("t", "select big",
                           budget=QueryBudget(deadline_seconds=1.0))
        assert excinfo.value.reason == "predicted_deadline"
        assert excinfo.value.tenant == "t"
        assert excinfo.value.predicted_seconds >= 5.0
        assert excinfo.value.remaining_seconds == pytest.approx(1.0)
        assert excinfo.value.retry_after_seconds is not None
        # A generous budget still passes.
        outcome = gateway.execute(
            "t", "select big", budget=QueryBudget(deadline_seconds=60.0))
        assert outcome.result.rows == [(1,)]
    finally:
        gateway.close()
    assert service.calls == ["select big", "select big"]
    families = parse_prometheus(gateway.metrics_text())
    samples = families["repro_gateway_shed_predicted_total"]["samples"]
    assert [(labels["tenant"], labels["reason"], value)
            for _, labels, value in samples] \
        == [("t", "predicted_deadline", 1.0)]


def test_predicted_costly_query_is_shed_at_submit():
    clock = FakeClock()
    service = FakeService(cost_usd=0.5)
    gateway = make_gateway(service, clock)
    try:
        gateway.execute("t", "select pricey")
        with pytest.raises(SheddedError) as excinfo:
            gateway.submit("t", "select pricey",
                           budget=QueryBudget(cost_ceiling_usd=0.1))
        assert excinfo.value.reason == "predicted_cost"
        assert excinfo.value.retry_after_seconds is None
    finally:
        gateway.close()
    assert service.calls == ["select pricey"]


def test_prediction_is_compared_with_the_budget_as_it_is():
    clock = FakeClock()
    service = FakeService(wall_seconds=1.0)
    gateway = make_gateway(service, clock)
    try:
        gateway.execute("t", "q")  # teaches the predictor: 1.0 s
        # 1.0 s predicted fits a 1.5 s budget: no safety margin on top.
        assert gateway.execute(
            "t", "q",
            budget=QueryBudget(deadline_seconds=1.5)).result.rows == [(1,)]
        with pytest.raises(SheddedError) as excinfo:
            gateway.submit("t", "q",
                           budget=QueryBudget(deadline_seconds=0.9))
        assert excinfo.value.predicted_seconds == pytest.approx(1.0)
    finally:
        gateway.close()
    assert service.calls == ["q", "q"]


def test_queued_backlog_scales_the_prediction():
    clock = FakeClock()
    gate = threading.Event()
    gate.set()
    service = FakeService(wall_seconds=1.0, gate=gate)
    gateway = make_gateway(service, clock)
    try:
        gateway.execute("t", "q")  # teaches the predictor: 1.0 s
        gate.clear()
        service.started.clear()
        running = gateway.submit("t", "select 1")
        assert service.started.wait(timeout=30)  # the one worker is busy
        queued = gateway.submit("t", "select 2")
        # One queued entry per worker doubles the expected wait.
        with pytest.raises(SheddedError) as excinfo:
            gateway.submit("t", "q",
                           budget=QueryBudget(deadline_seconds=1.5))
        assert excinfo.value.predicted_seconds == pytest.approx(2.0)
        assert excinfo.value.retry_after_seconds == pytest.approx(1.0)
        gate.set()
        running.result(timeout=30)
        queued.result(timeout=30)
    finally:
        gate.set()
        gateway.close()
    assert service.calls == ["q", "select 1", "select 2"]


def test_unseen_sql_falls_back_to_latency_histogram():
    clock = FakeClock()
    service = FakeService(wall_seconds=5.0)
    gateway = make_gateway(service, clock)
    try:
        gateway.execute("t", "select warmup")  # feeds the histogram
        with pytest.raises(SheddedError) as excinfo:
            gateway.submit("t", "select novel",
                           budget=QueryBudget(deadline_seconds=1.0))
        assert excinfo.value.reason == "predicted_deadline"
    finally:
        gateway.close()
    assert service.calls == ["select warmup"]


def test_cold_start_admits_without_any_signal():
    clock = FakeClock()
    service = FakeService()
    gateway = make_gateway(service, clock)
    try:
        outcome = gateway.execute(
            "t", "select 1", budget=QueryBudget(deadline_seconds=0.5))
        assert outcome.result.rows == [(1,)]
    finally:
        gateway.close()


# ----------------------------------------------------------------------
# Tenant default budgets
# ----------------------------------------------------------------------
def test_tenant_default_budget_mints_a_token():
    clock = FakeClock()
    service = FakeService()
    gateway = make_gateway(
        service, clock,
        tenants=[TenantConfig("t", user="U", deadline_seconds=30.0)])
    try:
        future = gateway.submit("t", "select 1")
        token = future.cancellation_token
        assert token is not None
        assert token.budget.deadline_seconds == pytest.approx(30.0)
        future.result(timeout=30)
    finally:
        gateway.close()


def test_budget_fraction_histogram_observes_budgeted_successes():
    clock = FakeClock()
    service = FakeService()
    gateway = make_gateway(service, clock)
    try:
        gateway.execute("t", "select 1",
                        budget=QueryBudget(deadline_seconds=10.0))
        gateway.execute("t", "select 2")  # unbudgeted: not observed
    finally:
        gateway.close()
    families = parse_prometheus(gateway.metrics_text())
    count = [value for name, labels, value
             in families["repro_gateway_budget_remaining_fraction"]["samples"]
             if name.endswith("_count") and labels["tenant"] == "t"]
    assert count == [1.0]


def test_tenant_quota_budget_merge():
    quota = TenantQuota("t", deadline_seconds=10.0, cost_ceiling_usd=1.0)
    merged = quota.budget_for(None)
    assert merged.deadline_seconds == 10.0
    assert merged.cost_ceiling_usd == 1.0
    merged = quota.budget_for(QueryBudget(deadline_seconds=2.0))
    assert merged.deadline_seconds == 2.0
    assert merged.cost_ceiling_usd == 1.0  # default fills the gap
    unlimited = TenantQuota("u")
    assert unlimited.budget_for(None) == QueryBudget()
    passthrough = unlimited.budget_for(QueryBudget(deadline_seconds=5.0))
    assert passthrough.deadline_seconds == 5.0
    assert passthrough.cost_ceiling_usd is None


def test_caller_token_is_honoured_over_tenant_default():
    clock = FakeClock()
    service = FakeService()
    gateway = make_gateway(
        service, clock,
        tenants=[TenantConfig("t", user="U", deadline_seconds=30.0)])
    try:
        mine = CancellationToken(QueryBudget(deadline_seconds=5.0),
                                 clock=clock)
        future = gateway.submit("t", "select 1", token=mine)
        assert future.cancellation_token is mine
        future.result(timeout=30)
    finally:
        gateway.close()


# ----------------------------------------------------------------------
# Mid-execution aborts are classified, not lumped into "failed"
# ----------------------------------------------------------------------
def test_mid_execution_deadline_ledgers_as_deadline():
    clock = FakeClock()

    class ExpiringService(FakeService):
        def execute(self, sql, user=None, token=None):
            clock.advance(10.0)
            return super().execute(sql, user=user, token=token)

    gateway = make_gateway(ExpiringService(), clock)
    try:
        with pytest.raises(DeadlineExceededError):
            gateway.execute("t", "select 1",
                            budget=QueryBudget(deadline_seconds=1.0))
    finally:
        gateway.close()
    entry, = gateway.ledger.entries("t")
    assert entry.status == "deadline"
    families = parse_prometheus(gateway.metrics_text())
    samples = families["repro_gateway_deadline_exceeded_total"]["samples"]
    assert samples[0][2] == 1.0
