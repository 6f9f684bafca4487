"""Pricing, network, estimation, and the §7 cost model."""

import pytest

from repro.core.extension import minimally_extend
from repro.core.operators import BaseRelationNode, Selection
from repro.core.plan import QueryPlan
from repro.core.predicates import value_equals
from repro.core.requirements import EncryptionScheme, chosen_schemes
from repro.core.schema import Relation
from repro.cost.estimator import PlanEstimator
from repro.cost.factors import encrypted_width
from repro.cost.model import CostModel, normalized_costs, transfer_seconds
from repro.cost.pricing import (
    AUTHORITY_CPU_MULTIPLIER,
    PROVIDER_SPREAD,
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
        prices = PriceList.paper_defaults(["P1", "P2", "P3"], ["A"], "U")
        base = prices.rates("P1").cpu_usd_per_second
        assert base == provider_rates().cpu_usd_per_second
        for index, name in enumerate(("P2", "P3"), start=1):
            assert prices.rates(name).cpu_usd_per_second == pytest.approx(
                base * (1.0 + PROVIDER_SPREAD * index))

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
        # 10 Gbps backbone, 100 Mbps to and from the querying user.
        assert transfer_seconds(10**10, "H", "X", "U") == 8.0
        assert transfer_seconds(10**8, "U", "X", "U") == 8.0
        assert transfer_seconds(10**8, "X", "U", "U") == 8.0
        assert transfer_seconds(0, "H", "X", "U") == 0.0
        assert transfer_seconds(1000, "H", "H", "U") == 0.0

    def test_transfer_time_scales(self):
        slow = transfer_seconds(10**9, "U", "X", "U")
        fast = transfer_seconds(10**9, "H", "X", "U")
        assert slow == pytest.approx(fast * 100)

    def test_negative_volume_rejected(self):
        with pytest.raises(EstimationError):
            transfer_seconds(-1, "H", "X", "U")


class TestEstimator:
    def test_leaf_estimates(self, example):
        estimator = PlanEstimator()
        estimates = estimator.estimate(example.plan)
        hosp = estimates[example.hosp_leaf]
        assert hosp.rows == 10_000
        assert hosp.row_bytes > 0

    def test_selection_reduces_rows(self, example):
        estimates = PlanEstimator().estimate(example.plan)
        assert estimates[example.selection].rows \
            < estimates[example.hosp_leaf].rows

    def test_group_by_rows_bounded_by_groups(self, example):
        estimates = PlanEstimator().estimate(example.plan)
        group = estimates[example.group_by]
        join = estimates[example.join]
        assert group.rows <= join.rows

    def test_equal_looking_nodes_get_their_own_estimates(self):
        relation = Relation("R", ["a", "b"], cardinality=1000)
        leaf = BaseRelationNode(relation)
        inner = Selection(leaf, value_equals("a", 1))
        outer = Selection(inner, value_equals("a", 1))
        estimates = PlanEstimator().estimate(QueryPlan(outer))
        assert inner.label() == outer.label()
        assert list(estimates) == [leaf, inner, outer]
        assert estimates[inner].rows < estimates[leaf].rows
        # The outer selection scans only what the inner one kept.
        assert estimates[outer].cpu_seconds < estimates[inner].cpu_seconds

    def test_encrypted_widths_tracked(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        schemes = chosen_schemes(example.plan)
        estimates = PlanEstimator(schemes).estimate(extended.plan)
        root = estimates[extended.plan.root]
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
        join = estimates[example.join]
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
        model = CostModel(prices)
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
        model = CostModel(prices)
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


#: Plans TPC-H query ``argv[1]`` under UAPenc at the Fig. 9/10 estimate
#: scale and prints ``float.hex`` of the total and network cost of the
#: chosen plan and of every standby.
_PLAN_UAPENC = """
import json
import sys
from repro.core.assignment import assign
from repro.cost.pricing import PriceList
from repro.tpch.queries import query_plan
from repro.tpch.scenarios import scenario
from repro.tpch.schema import build_tpch_schema

schema = build_tpch_schema(0.1)
bundle = scenario("UAPenc", schema)
result = assign(query_plan(int(sys.argv[1]), schema), bundle.policy,
                bundle.subject_names, PriceList.from_subjects(bundle.subjects),
                user=bundle.user, owners=bundle.owners)
print(json.dumps([[member.cost.total_usd.hex(), member.cost.net_usd.hex()]
                  for member in (result,) + result.portfolio]))
"""


def _uapenc_costs(number: int, seed: str) -> list[list[str]]:
    """``_PLAN_UAPENC``'s answer in an interpreter with ``seed``."""
    import json
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _PLAN_UAPENC, str(number)], env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


class TestHashSeedIndependence:
    def test_q18_uapenc_costs_repeat_across_hash_seeds(self):
        """The §7 estimate sums floats over attribute sets; summed in
        string-hash order, Q18 / UAPenc's standby differed in its last
        bits between ``PYTHONHASHSEED`` 1 and 2."""
        costs = [_uapenc_costs(18, seed) for seed in ("1", "2")]
        assert len(costs[0]) == 2  # the chosen plan and one standby
        assert costs[0] == costs[1]

    def test_q16_uapenc_costs_repeat_across_hash_seeds(self):
        """A group-by's cardinality is a product over its grouping
        attributes; multiplied in string-hash order, Q16 / UAPenc's
        network cost differed in its last bit between seeds 0 and 6."""
        costs = [_uapenc_costs(16, seed) for seed in ("0", "6")]
        assert costs[0] == costs[1]
