"""Pricing, network, estimation, and the §7 cost model."""

import pytest

from repro.core.extension import minimally_extend
from repro.core.requirements import EncryptionScheme, chosen_schemes
from repro.cost.estimator import PlanEstimator
from repro.cost.factors import encrypted_width
from repro.cost.model import CostModel, normalized_costs
from repro.cost.network import NetworkTopology
from repro.cost.pricing import (
    AUTHORITY_CPU_MULTIPLIER,
    PriceList,
    ResourceRates,
    USER_CPU_MULTIPLIER,
    provider_rates,
)
from repro.exceptions import EstimationError


class TestPricing:
    def test_paper_ratios(self, example):
        prices = PriceList.from_subjects(example.subjects)
        base = prices.rates("X").cpu_usd_per_second
        assert prices.rates("U").cpu_usd_per_second \
            == pytest.approx(base * USER_CPU_MULTIPLIER)
        assert prices.rates("H").cpu_usd_per_second \
            == pytest.approx(base * AUTHORITY_CPU_MULTIPLIER)

    def test_provider_spread(self):
        prices = PriceList.paper_defaults(
            ["P1", "P2"], ["A"], "U", provider_spread=0.5)
        assert prices.rates("P2").cpu_usd_per_second \
            == pytest.approx(prices.rates("P1").cpu_usd_per_second * 1.5)

    def test_synthetic_authority_fallback(self):
        prices = PriceList.paper_defaults(["P1"], [], "U")
        rate = prices.rates("authority:Hosp").cpu_usd_per_second
        assert rate == pytest.approx(
            provider_rates().cpu_usd_per_second
            * AUTHORITY_CPU_MULTIPLIER)

    def test_unknown_subject_without_default(self):
        prices = PriceList({"A": provider_rates()})
        with pytest.raises(EstimationError):
            prices.rates("B")

    def test_negative_rates_rejected(self):
        with pytest.raises(EstimationError):
            ResourceRates(cpu_usd_per_second=-1.0)

    def test_requires_exactly_one_user(self, example):
        with pytest.raises(EstimationError):
            PriceList.from_subjects(
                [s for s in example.subjects if s.name != "U"])


class TestNetwork:
    def test_paper_topology(self):
        topology = NetworkTopology.paper_defaults("U")
        assert topology.bandwidth_bps("H", "X") == 10_000_000_000
        assert topology.bandwidth_bps("U", "X") == 100_000_000
        assert topology.transfer_seconds(0, "H", "X") == 0.0
        assert topology.transfer_seconds(1000, "H", "H") == 0.0

    def test_transfer_time_scales(self):
        topology = NetworkTopology.paper_defaults("U")
        slow = topology.transfer_seconds(10**9, "U", "X")
        fast = topology.transfer_seconds(10**9, "H", "X")
        assert slow == pytest.approx(fast * 100)

    def test_override(self):
        topology = NetworkTopology.paper_defaults("U").with_override(
            "H", "X", 1_000.0)
        assert topology.bandwidth_bps("X", "H") == 1_000.0

    def test_negative_volume_rejected(self):
        with pytest.raises(EstimationError):
            NetworkTopology.paper_defaults("U").transfer_seconds(
                -1, "H", "X")


class TestEstimator:
    def test_leaf_estimates(self, example):
        estimator = PlanEstimator()
        estimates = estimator.estimate(example.plan)
        hosp = estimates[id(example.hosp_leaf)]
        assert hosp.rows == 10_000
        assert hosp.row_bytes > 0

    def test_selection_reduces_rows(self, example):
        estimates = PlanEstimator().estimate(example.plan)
        assert estimates[id(example.selection)].rows \
            < estimates[id(example.hosp_leaf)].rows

    def test_group_by_rows_bounded_by_groups(self, example):
        estimates = PlanEstimator().estimate(example.plan)
        group = estimates[id(example.group_by)]
        join = estimates[id(example.join)]
        assert group.rows <= join.rows

    def test_encrypted_widths_tracked(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        schemes = chosen_schemes(example.plan)
        estimates = PlanEstimator(schemes).estimate(extended.plan)
        root = estimates[id(extended.plan.root)]
        # P decrypted for the having: plaintext width again.
        assert root.scheme.get("P") is None

    def test_encrypted_width_function(self):
        assert encrypted_width(EncryptionScheme.DETERMINISTIC, 4) == 16
        assert encrypted_width(EncryptionScheme.DETERMINISTIC, 20) == 32
        assert encrypted_width(EncryptionScheme.OPE, 8) == 8
        assert encrypted_width(EncryptionScheme.PAILLIER, 8) == 128
        assert encrypted_width(EncryptionScheme.RANDOMIZED, 4) == 28

    def test_bytes_if_encrypted_grows(self, example):
        estimates = PlanEstimator().estimate(example.plan)
        join = estimates[id(example.join)]
        plain = join.output_bytes
        inflated = join.bytes_if_encrypted(
            frozenset({"S", "C"}),
            {"S": EncryptionScheme.RANDOMIZED,
             "C": EncryptionScheme.RANDOMIZED},
        )
        assert inflated > plain  # randomized adds an IV per value


class TestCostModel:
    def test_breakdown_components(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        prices = PriceList.from_subjects(example.subjects)
        model = CostModel(prices, NetworkTopology.paper_defaults("U"))
        breakdown = model.extended_plan_cost(extended, "U", example.owners)
        assert breakdown.total_usd == pytest.approx(
            breakdown.cpu_usd + breakdown.io_usd + breakdown.net_usd)
        assert breakdown.elapsed_seconds > 0
        assert set(breakdown.per_subject_usd) >= {"H", "I", "X", "Y"}

    def test_transfers_charged_to_sender(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        prices = PriceList.from_subjects(example.subjects)
        model = CostModel(prices, NetworkTopology.paper_defaults("U"))
        breakdown = model.extended_plan_cost(extended, "U", example.owners)
        transfer_labels = [l for l, _, _ in breakdown.per_node if "→" in l]
        assert transfer_labels  # at least H→X, I→X, X→Y, Y→U

    def test_normalized_costs(self):
        from repro.cost.model import CostBreakdown

        a, b = CostBreakdown(), CostBreakdown()
        a.charge("s", "x", cpu=2.0)
        b.charge("s", "x", cpu=1.0)
        ratios = normalized_costs({"UA": a, "enc": b}, "UA")
        assert ratios == {"UA": 1.0, "enc": 0.5}
        with pytest.raises(EstimationError):
            normalized_costs({"enc": b}, "UA")


#: Plans TPC-H Q18 under UAPenc at the Fig. 9/10 estimate scale and
#: prints ``float.hex`` of the chosen plan's and every standby's cost.
_PLAN_Q18_UAPENC = """
import json
from repro.core.assignment import assign
from repro.cost.pricing import PriceList
from repro.tpch.queries import query_plan
from repro.tpch.scenarios import scenario
from repro.tpch.schema import build_tpch_schema

schema = build_tpch_schema(0.1)
bundle = scenario("UAPenc", schema)
result = assign(query_plan(18, schema), bundle.policy, bundle.subject_names,
                PriceList.from_subjects(bundle.subjects), user=bundle.user,
                owners=bundle.owners)
print(json.dumps([member.cost.total_usd.hex()
                  for member in (result,) + result.portfolio]))
"""


class TestHashSeedIndependence:
    def test_q18_uapenc_costs_repeat_across_hash_seeds(self):
        """The §7 estimate sums floats over attribute sets; summed in
        string-hash order, Q18 / UAPenc's standby differed in its last
        bits between ``PYTHONHASHSEED`` 1 and 2."""
        import json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        costs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run(
                [sys.executable, "-c", _PLAN_Q18_UAPENC], env=env,
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            costs.append(json.loads(out))
        assert len(costs[0]) == 2  # the chosen plan and one standby
        assert costs[0] == costs[1]
