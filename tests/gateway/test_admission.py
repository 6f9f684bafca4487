"""Fair scheduling and admission control, driven deterministically."""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import AdmissionRejected
from repro.gateway.admission import AdmissionController, FairScheduler

from oracles.fair_shares import fair_shares


def backlogged_scheduler(weights: dict[str, int], items: int,
                         depth: int | None = None) -> FairScheduler:
    scheduler = FairScheduler()
    for tenant, weight in weights.items():
        scheduler.register(tenant, weight, queue_depth=depth or items)
    for tenant in weights:
        for index in range(items):
            scheduler.offer(tenant, f"{tenant}-{index}")
    return scheduler


def test_smooth_wrr_is_proportional_and_interleaved():
    weights = {"a": 4, "b": 2, "c": 1}
    scheduler = backlogged_scheduler(weights, items=28)
    order = []
    for _ in range(7 * 4):  # four full cycles, all tenants backlogged
        tenant, _ = scheduler.take()
        order.append(tenant)
    counts = {tenant: order.count(tenant) for tenant in weights}
    assert counts == {"a": 16, "b": 8, "c": 4}
    # Smooth WRR interleaves: the heavy tenant is never served more
    # than ceil(weight) times consecutively, and every prefix stays
    # within one dispatch of proportional.
    shares = fair_shares(weights)
    for prefix in range(1, len(order) + 1):
        for tenant in weights:
            served = order[:prefix].count(tenant)
            assert abs(served - prefix * shares[tenant]) <= 1.0


def test_wrr_prefix_bound_under_many_weights():
    weights = {f"t{i}": 1 + (i % 5) for i in range(12)}
    scheduler = backlogged_scheduler(weights, items=40)
    shares = fair_shares(weights)
    order = []
    for _ in range(sum(weights.values()) * 5):
        order.append(scheduler.take()[0])
    for tenant in weights:
        served = order.count(tenant)
        assert abs(served - len(order) * shares[tenant]) <= 1.0


def test_fifo_within_a_tenant():
    scheduler = FairScheduler()
    scheduler.register("a", 1, queue_depth=8)
    for index in range(5):
        scheduler.offer("a", index)
    assert [scheduler.take()[1] for _ in range(5)] == [0, 1, 2, 3, 4]
    assert scheduler.take() is None


def test_empty_queues_do_not_starve_or_inflate():
    scheduler = FairScheduler()
    scheduler.register("heavy", 8, queue_depth=16)
    scheduler.register("light", 1, queue_depth=8)
    scheduler.offer("light", "only")
    # The heavy tenant has nothing queued; light is served immediately
    # instead of waiting out heavy's share.
    assert scheduler.take() == ("light", "only")
    # Idle accumulation must not let a tenant monopolize later: after
    # heavy returns, service is proportional again from the start.
    for index in range(16):
        scheduler.offer("heavy", index)
        if index < 8:
            scheduler.offer("light", f"l{index}")
    order = [scheduler.take()[0] for _ in range(9)]
    assert order.count("heavy") == 8
    assert order.count("light") == 1


def test_overflow_rejects_with_context():
    scheduler = FairScheduler()
    scheduler.register("a", 1, queue_depth=2)
    scheduler.offer("a", 1)
    scheduler.offer("a", 2)
    with pytest.raises(AdmissionRejected) as excinfo:
        scheduler.offer("a", 3)
    assert excinfo.value.tenant == "a"
    assert excinfo.value.queue_depth == 2
    assert scheduler.depth("a") == 2  # the rejected item was not queued


def test_unknown_and_duplicate_tenants():
    scheduler = FairScheduler()
    scheduler.register("a", 1)
    with pytest.raises(ValueError):
        scheduler.offer("ghost", 1)
    with pytest.raises(ValueError):
        scheduler.register("a", 2)
    with pytest.raises(ValueError):
        scheduler.register("b", 0)
    with pytest.raises(ValueError):
        scheduler.register("b", 1, queue_depth=0)


def test_controller_bounds_inflight_and_numbers_dispatches():
    controller = AdmissionController(max_inflight=2)
    controller.register("a", 1, queue_depth=8)
    for index in range(4):
        controller.submit("a", index)
    first = controller.acquire()
    second = controller.acquire()
    assert first[2] == 1 and second[2] == 2
    assert controller.inflight == 2

    # A third acquire must block until a slot frees.
    acquired = []
    waiter = threading.Thread(
        target=lambda: acquired.append(controller.acquire()))
    waiter.start()
    waiter.join(timeout=0.1)
    assert waiter.is_alive() and not acquired
    controller.release()
    waiter.join(timeout=5)
    assert not waiter.is_alive()
    assert acquired[0][1] == 2 and acquired[0][2] == 3


def test_controller_close_drain_serves_backlog_then_none():
    controller = AdmissionController(max_inflight=1)
    controller.register("a", 1, queue_depth=8)
    controller.submit("a", "x")
    assert controller.close(drain=True) == []
    tenant, item, _ = controller.acquire()
    assert item == "x"
    controller.release()
    assert controller.acquire() is None
    with pytest.raises(RuntimeError):
        controller.submit("a", "late")


def test_controller_close_without_drain_returns_backlog():
    controller = AdmissionController(max_inflight=1)
    controller.register("a", 1, queue_depth=8)
    controller.submit("a", "x")
    controller.submit("a", "y")
    dropped = controller.close(drain=False)
    assert [item for _, item in dropped] == ["x", "y"]
    assert controller.acquire() is None


def test_controller_validates_max_inflight():
    with pytest.raises(ValueError):
        AdmissionController(max_inflight=0)
