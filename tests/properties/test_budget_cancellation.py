"""Chaos cancellation: aborts at any checkpoint leave no trace behind.

The deadline/cancellation contract's headline properties, checked at
*every* cooperative checkpoint a query passes through (discovered by
counting, then replayed one by one):

* an abort raises :class:`~repro.exceptions.QueryCancelledError` /
  :class:`~repro.exceptions.DeadlineExceededError` tagged with the
  checkpoint it unwound from, never a partial result;
* re-running the same query on the *same service* (same caches, same
  key material) immediately after the abort is bit-identical to a
  clean run on a fresh service — aborts never poison a cache;
* with a fake clock, a deadline expiring mid-execution aborts at the
  next checkpoint (bounded abort latency, no real sleeps anywhere).

Checked on the paper's running example and on TPC-H Q3/Q5/Q18 under
the UAPenc scenario.
"""

import pytest

from helpers import steady_latency
from repro.core.budget import CancellationToken, QueryBudget
from repro.engine import Table
from repro.exceptions import (
    DeadlineExceededError,
    QueryAbortedError,
    QueryCancelledError,
)
from repro.paper_example import build_running_example
from repro.service import QueryService
from repro.tpch import TPCH_UDFS, all_scenarios, build_tpch_schema, \
    generate, query
from repro.tpch.schema import table_owners

RUNNING_SQL = ("select T, avg(P) from Hosp join Ins on S=C "
               "where D='stroke' group by T having avg(P)>100")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class CountingToken(CancellationToken):
    """Counts every checkpoint a query passes through."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checks = 0
        self.wheres: list[str] = []

    def check(self, where: str) -> None:
        self.checks += 1
        self.wheres.append(where)
        super().check(where)


class CancelAtToken(CountingToken):
    """Cancels itself upon reaching the n-th checkpoint."""

    def __init__(self, cancel_at: int, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cancel_at = cancel_at

    def check(self, where: str) -> None:
        if self.checks + 1 >= self.cancel_at:
            self.cancel(f"chaos cancel at checkpoint #{self.cancel_at}")
        super().check(where)


def assert_rows_equal(a: Table, b: Table):
    assert a.columns == b.columns
    assert sorted(map(repr, a.rows)) == sorted(map(repr, b.rows))


def checkpoint_positions(total: int, samples: int = 8) -> list[int]:
    """A deterministic spread of cancel positions across ``total``."""
    if total <= samples:
        return list(range(1, total + 1))
    step = total / samples
    positions = sorted({max(1, round(step * i)) for i in range(1, samples)})
    return positions + [total]


class TestRunningExampleCancellation:
    @staticmethod
    def make_tables(rows=40):
        hosp = Table("Hosp", ("S", "B", "D", "T"), [
            (f"s{i}", 1950 + i % 50, "stroke" if i % 3 else "flu",
             "tpa" if i % 2 else "surgery") for i in range(rows)])
        ins = Table("Ins", ("C", "P"), [(f"s{i}", 40.0 + 7.0 * (i % 30))
                                        for i in range(rows)])
        return {"H": {"Hosp": hosp}, "I": {"Ins": ins}}

    def make_service(self, clock=None):
        example = build_running_example()
        kwargs = {}
        if clock is not None:
            kwargs = dict(clock=clock, sleeper=clock.sleep,
                          fault_injector=steady_latency(
                              0.01, example.subject_names))
        else:
            kwargs = dict(sleeper=lambda seconds: None)
        return QueryService(example.schema, example.policy,
                            example.subjects, example.owners,
                            self.make_tables(), user="U", **kwargs)

    @pytest.fixture(scope="class")
    def clean(self):
        return self.make_service().execute(RUNNING_SQL)

    @pytest.fixture(scope="class")
    def total_checkpoints(self):
        token = CountingToken()
        self.make_service().execute(RUNNING_SQL, token=token)
        return token.checks

    def test_query_passes_many_checkpoints(self, total_checkpoints):
        # The abort-latency bound is only meaningful if checkpoints are
        # dense: entry, planning, dispatch, per-fragment, per-chunk.
        assert total_checkpoints >= 5

    def test_cancel_at_every_sampled_checkpoint_is_clean(
            self, clean, total_checkpoints):
        for position in checkpoint_positions(total_checkpoints):
            service = self.make_service()
            token = CancelAtToken(position)
            with pytest.raises(QueryCancelledError) as excinfo:
                service.execute(RUNNING_SQL, token=token)
            assert f"#{position}" in str(excinfo.value)
            assert excinfo.value.where == token.wheres[-1]
            assert isinstance(excinfo.value, QueryAbortedError)
            # The same (aborted) service replays clean: no cache got a
            # partial entry, no key material was corrupted.
            rerun = service.execute(RUNNING_SQL)
            assert_rows_equal(rerun.result, clean.result)

    def test_cancel_past_the_last_checkpoint_completes(
            self, clean, total_checkpoints):
        token = CancelAtToken(total_checkpoints + 1)
        outcome = self.make_service().execute(RUNNING_SQL, token=token)
        assert_rows_equal(outcome.result, clean.result)

    def test_deadline_mid_execution_aborts_and_leaves_caches_clean(
            self, clean):
        clock = FakeClock()
        service = self.make_service(clock=clock)
        # Each simulated provider call sleeps 10ms on the fake clock, so
        # a 15ms budget dies during fragment execution, not at entry.
        with pytest.raises(DeadlineExceededError) as excinfo:
            service.execute(RUNNING_SQL,
                            budget=QueryBudget(deadline_seconds=0.015))
        assert excinfo.value.where.startswith(("runtime:", "pool:",
                                               "service:"))
        assert excinfo.value.deadline_seconds == pytest.approx(0.015)
        # The abort overshoots the deadline by at most one provider call
        # (a checkpoint follows every call) — and by nothing here: the
        # second call's latency is clamped to the 5ms that were left.
        assert excinfo.value.elapsed_seconds - 0.015 <= 0.010 + 1e-9
        assert excinfo.value.elapsed_seconds == pytest.approx(0.015)
        rerun = service.execute(RUNNING_SQL)
        assert_rows_equal(rerun.result, clean.result)

    def test_generous_deadline_reports_remaining_budget(self, clean):
        clock = FakeClock()
        service = self.make_service(clock=clock)
        outcome = service.execute(
            RUNNING_SQL, budget=QueryBudget(deadline_seconds=1000.0))
        assert_rows_equal(outcome.result, clean.result)
        assert outcome.budget.deadline_seconds == 1000.0
        assert 0.0 < outcome.budget_remaining_seconds < 1000.0
        assert "budget[" in outcome.describe()

    def test_abort_carries_the_partial_trace(self):
        clock = FakeClock()
        service = self.make_service(clock=clock)
        with pytest.raises(DeadlineExceededError) as excinfo:
            service.execute(RUNNING_SQL,
                            budget=QueryBudget(deadline_seconds=0.015))
        trace = excinfo.value.trace
        assert trace is not None
        # At 15ms against 10ms-per-call latency at most one fragment
        # completed — the trace is genuinely partial.  (Every fragment
        # was *requested* before the innermost one ran, so
        # ``fragments_run`` cannot tell.)
        clean = self.make_service().execute(RUNNING_SQL).trace
        assert 0 < trace.attempts < clean.attempts
        assert trace.messages < clean.messages
        assert trace.rows_transferred < clean.rows_transferred


class TestTpchCancellation:
    SCALE = 0.002

    @pytest.fixture(scope="class")
    def tpch_setup(self):
        schema = build_tpch_schema(self.SCALE)
        data = generate(scale=self.SCALE, seed=7)
        scenario_obj = all_scenarios(schema)["UAPenc"]
        authority_tables = {"A1": {}, "A2": {}}
        for name, owner in table_owners().items():
            authority_tables[owner][name] = data.table(name)
        return schema, scenario_obj, authority_tables

    def make_service(self, tpch_setup):
        schema, scenario_obj, authority_tables = tpch_setup
        return QueryService(schema, scenario_obj.policy,
                            scenario_obj.subjects, scenario_obj.owners,
                            authority_tables, user=scenario_obj.user,
                            udfs=TPCH_UDFS,
                            sleeper=lambda seconds: None)

    @pytest.fixture(scope="class")
    def clean_results(self, tpch_setup):
        service = self.make_service(tpch_setup)
        return {number: service.execute(query(number).sql).result
                for number in (3, 5, 18)}

    @pytest.mark.parametrize("number", [3, 5, 18])
    def test_cancel_chaos_then_rerun_is_bit_identical(
            self, tpch_setup, clean_results, number):
        counter = CountingToken()
        probe = self.make_service(tpch_setup)
        probe.execute(query(number).sql, token=counter)
        service = self.make_service(tpch_setup)
        aborted = 0
        for position in checkpoint_positions(counter.checks, samples=4):
            token = CancelAtToken(position)
            try:
                service.execute(query(number).sql, token=token)
            except QueryCancelledError:
                aborted += 1
            else:
                # Warm caches shorten later runs: the run finished
                # before reaching the cancel position, which is fine —
                # but only if it genuinely passed fewer checkpoints.
                assert token.checks < position
            rerun = service.execute(query(number).sql)
            assert_rows_equal(rerun.result, clean_results[number])
        assert aborted >= 1  # position 1 always aborts at entry
