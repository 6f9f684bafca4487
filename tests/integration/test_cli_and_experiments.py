"""CLI surface and experiment-module behaviours."""

import pytest

from helpers import parse_prometheus
from repro.cli import main
from repro.experiments.economics import EconomicResults, run_economics
from repro.exceptions import ReproError


class TestCli:
    def test_example_command(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 8" in out

    def test_fig9_subset(self, capsys):
        assert main(["fig9", "--scale", "0.05", "--queries", "3,13"]) == 0
        out = capsys.readouterr().out
        assert "Q3" in out and "Q13" in out and "Q1 " not in out

    def test_dispatch_command(self, capsys):
        assert main(["dispatch"]) == 0
        out = capsys.readouterr().out
        assert "reqX" in out or "⟦reqX⟧" in out or "X [" in out

    def test_ablate_mix(self, capsys):
        assert main(["ablate-mix", "--scale", "0.05",
                     "--queries", "3,10"]) == 0
        out = capsys.readouterr().out
        assert "uniform-visibility penalty" in out
        # The alternating split breaks uniform visibility over join
        # pairs: it is never cheaper than the prefix split.
        penalty = float(out.rsplit("penalty: ", 1)[1].strip().rstrip("x"))
        assert penalty >= 1.0

    def test_workload_command(self, capsys):
        assert main(["workload", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "session U:" in out
        assert "X: DENIED" in out
        assert "service totals:" in out

    def test_workload_with_generous_budget_reports_remaining(self,
                                                             capsys):
        assert main(["workload", "--repeat", "1",
                     "--deadline-ms", "60000"]) == 0
        out = capsys.readouterr().out
        assert "budget[" in out and "left of 60000ms]" in out

    def test_workload_cost_ceiling_aborts_cleanly(self, capsys):
        assert main(["workload", "--repeat", "1",
                     "--cost-ceiling", "0.0000001"]) == 0
        out = capsys.readouterr().out
        assert "ABORTED" in out and "ceiling" in out
        assert "Traceback" not in out

    def test_metrics_budget_flags_surface_in_the_scrape(self, capsys):
        assert main(["metrics", "--tenants", "1", "--repeat", "1",
                     "--deadline-ms", "60000"]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        assert "repro_gateway_budget_remaining_fraction" in families
        assert "repro_gateway_deadline_exceeded_total" in families
        assert "repro_gateway_shed_predicted_total" in families

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_metrics_command_emits_valid_prometheus(self, capsys):
        assert main(["metrics", "--tenants", "2", "--repeat", "1"]) == 0
        families = parse_prometheus(capsys.readouterr().out)
        for name in ("repro_gateway_queries_submitted_total",
                     "repro_gateway_queue_depth",
                     "repro_fragment_latency_seconds",
                     "repro_breaker_state",
                     "repro_cache_hits_total"):
            assert name in families, f"missing series {name}"
        submitted = families["repro_gateway_queries_submitted_total"]
        tenants = {labels["tenant"] for _, labels, _
                   in submitted["samples"]}
        assert tenants == {"tenant-0", "tenant-1"}


class TestCliValidation:
    """Bad knob values exit status 2 with a one-line ranged message."""

    @pytest.mark.parametrize("argv, needle", [
        (["workload", "--workers", "-3"], ">= 0"),
        (["workload", "--workers", "many"], ">= 0"),
        (["turbo"], "invalid choice"),
        (["workload", "--repeat", "0"], ">= 1"),
        (["Workload"], "invalid choice"),
        (["metrics", "--tenants", "0"], "1..64"),
        (["metrics", "--tenants", "900"], "1..64"),
        (["metrics", "--repeat", "-1"], ">= 1"),
        (["fig9", "--scale", "-1"], "> 0"),
        (["fig9", "--scale", "nan"], "> 0"),
        (["fig9", "--queries", "foo"], "comma-separated"),
        (["ablate-mix", "--queries", "3,,x"], "comma-separated"),
        (["workload", "--deadline-ms", "0"], "milliseconds > 0"),
        (["workload", "--deadline-ms", "soon"], "milliseconds > 0"),
        (["workload", "--cost-ceiling", "-0.5"], "USD > 0"),
        (["metrics", "--deadline-ms", "-10"], "milliseconds > 0"),
        (["metrics", "--cost-ceiling", "free"], "USD > 0"),
        (["workload", "--schedule", "parallel"], "unrecognized arguments"),
        (["workload", "--join-strategy", "hash"], "unrecognized arguments"),
    ])
    def test_bad_knobs_exit_status_2(self, argv, needle, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error:" in message and needle in message
        assert "Traceback" not in message


class TestEconomicsApi:
    @pytest.fixture(scope="class")
    def results(self) -> EconomicResults:
        return run_economics(scale=0.05, queries=(3, 13))

    def test_costs_indexed_per_query_and_scenario(self, results):
        assert len(results.costs) == 2 * 3
        point = results.cost_of(3, "UA")
        assert point.total_usd > 0 and point.assignees

    def test_normalization_baseline_is_one(self, results):
        assert results.normalized(3, "UA") == 1.0

    def test_missing_point_raises(self, results):
        with pytest.raises(ReproError):
            results.cost_of(7, "UA")

    def test_tables_render(self, results):
        assert "Q3" in results.figure9_table()
        assert "savings vs UA" in results.figure10_table()

    def test_savings_are_fractions(self, results):
        assert 0.0 <= results.saving("UAPenc") < 1.0
        assert 0.0 <= results.saving("UAPmix") < 1.0

    def test_cumulative_rows_accumulate(self, results):
        rows = results.cumulative_rows()
        assert rows[-1][1] == pytest.approx(len(rows))  # UA sums to N

    def test_paper_shape_over_all_22_queries(self):
        # §7's result at the paper's scale: per query UA = 1 ≥ UAPenc ≥
        # UAPmix (Fig. 9), cumulative series monotone and ordered, and
        # involving providers saves, more so under the looser policy
        # (Fig. 10; the paper reports 54.2 % and 71.3 %).
        full = run_economics(scale=0.1)
        rows = full.per_query_rows()
        assert [query for query, *_ in rows] == list(range(1, 23))
        for query, ua, enc, mix in rows:
            assert ua == 1.0
            assert enc <= 1.0 + 1e-9, f"Q{query}: UAPenc worse than UA"
            assert mix <= enc + 1e-9, f"Q{query}: UAPmix worse than UAPenc"
        previous = (0.0, 0.0, 0.0)
        for _, ua, enc, mix in full.cumulative_rows():
            assert ua >= previous[0] and enc >= previous[1] \
                and mix >= previous[2]
            assert ua >= enc - 1e-9 >= mix - 2e-9
            previous = (ua, enc, mix)
        assert 0.10 <= full.saving("UAPenc") < full.saving("UAPmix") < 1.0
        assert full.saving("UAPmix") >= 0.40
