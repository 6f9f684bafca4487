"""Integration tests: the paper's figures end to end, TPC-H pipelines,
and encrypted-vs-plaintext execution equivalence on random plans."""

import pytest

from repro.core.assignment import assign
from repro.core.candidates import compute_candidates
from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys
from repro.core.requirements import EncryptionScheme
from repro.cost.pricing import PriceList
from repro.crypto.keymanager import DistributedKeys
from repro.distributed import DistributedRuntime, build_runtime
from repro.engine import Executor, Table
from repro.engine.values import is_sealed
from repro.experiments import (
    run_economics,
    run_running_example,
    visibility_ablation,
)
from repro.tpch import (
    TPCH_UDFS,
    all_scenarios,
    build_tpch_schema,
    query_plan,
)

from helpers import authority_tables


class TestRunningExampleFigures:
    @pytest.fixture(scope="class")
    def results(self):
        return run_running_example()

    def test_figure3_profiles(self, results):
        assert results.figure3_profiles == {
            "σ(D='stroke')": "v:DST i:D ≃:-",
            "⋈(S=C)": "v:CDPST i:D ≃:{C,S}",
            "γ(T, avg(P))": "v:PT i:DT ≃:{C,S}",
            "σ(avg(P)>100)": "v:PT i:DPT ≃:{C,S}",
        }

    def test_figure3_assignees(self, results):
        assert results.figure3_assignees == {
            "σ(D='stroke')": "HU",
            "⋈(S=C)": "U",
            "γ(T, avg(P))": "U",
            "σ(avg(P)>100)": "UY",
        }

    def test_figure6_candidates(self, results):
        assert results.figure6_candidates == {
            "σ(D='stroke')": "HIUXYZ",
            "⋈(S=C)": "HUXYZ",
            "γ(T, avg(P))": "HUXYZ",
            "σ(avg(P)>100)": "UY",
        }

    def test_figure7_encryption_sets(self, results):
        assert results.figure7a.encrypted_attributes == frozenset("SCP")
        assert results.figure7b.encrypted_attributes == frozenset("DP")
        # Key distributions: 7(a) kSC → H,I and kP → I,Y; 7(b) kD → H.
        holders = [{key.name: "".join(sorted(keys.holders(key)))
                    for key in keys.keys}
                   for keys in (results.keys7a, results.keys7b)]
        assert holders == [{"kCS": "HI", "kP": "IY"},
                           {"kD": "H", "kP": "IY"}]

    def test_figure8_structure(self, results):
        fragments = results.figure8.fragments
        assert fragments["reqX"].requests and \
            set(fragments["reqX"].requests.values()) == {"reqH", "reqI"}
        assert set(fragments["reqY"].requests.values()) == {"reqX"}

    def test_report_renders(self, results):
        text = results.describe()
        assert "Figure 3" in text and "Figure 8" in text


class TestTpchEndToEnd:
    @pytest.fixture(scope="class")
    def setup(self, tpch_data):
        scale = 0.002
        schema = build_tpch_schema(scale)
        data = tpch_data(scale, 42)
        scenarios = all_scenarios(schema)
        return schema, data, scenarios

    @pytest.fixture(scope="class")
    def runtime(self, setup):
        """One UAPenc runtime, shared by every query below."""
        _, data, scenarios = setup
        scenario_obj = scenarios["UAPenc"]
        return build_runtime(
            scenario_obj.policy, list(scenario_obj.subjects),
            authority_tables(data), user="U", udfs=TPCH_UDFS)

    @pytest.mark.parametrize("number", [3, 5, 12])
    def test_distributed_matches_plaintext(self, setup, runtime, number):
        schema, data, scenarios = setup
        scenario_obj = scenarios["UAPenc"]
        plan = query_plan(number, schema)
        prices = PriceList.from_subjects(scenario_obj.subjects)
        outcome = assign(plan, scenario_obj.policy,
                         scenario_obj.subject_names, prices,
                         user=scenario_obj.user,
                         owners=scenario_obj.owners)
        keys = establish_keys(outcome.extended, scenario_obj.policy)
        dispatch_plan = dispatch(outcome.extended, keys,
                                 owners=scenario_obj.owners, user="U")
        result, _ = runtime.run(
            dispatch_plan, outcome.extended, keys,
            DistributedKeys.from_assignment(keys),
        )
        plain = Executor(data.catalog(), udfs=TPCH_UDFS).execute(
            query_plan(number, schema))
        assert set(result.columns) == set(plain.columns)
        assert len(result) == len(plain)

    def test_economics_shape_small(self):
        results = run_economics(scale=0.05, queries=(3, 5, 13))
        for q in (3, 5, 13):
            assert results.normalized(q, "UAPenc") <= 1.0 + 1e-9
            assert results.normalized(q, "UAPmix") \
                <= results.normalized(q, "UAPenc") + 1e-9

    def test_visibility_ablation_runs(self, setup):
        _, _, scenarios = setup
        # Lineitem-heavy aggregation, deep cross-authority joins and
        # count-style aggregation: encrypting by default never beats
        # the minimal extension (§5's two extremes).
        for number in (3, 5, 10, 13, 21):
            points = {p.variant: p for p in visibility_ablation(
                number, scenarios["UAPenc"], scale=0.05)}
            assert set(points) == {"minimal-extension",
                                   "minimize-visibility"}
            assert points["minimal-extension"].total_usd \
                <= points["minimize-visibility"].total_usd * 1.001


def test_rerun_under_fresh_keys_misses_every_keyed_fragment(
        example, example_tables):
    """A fragment result computed under one key set is never served to a
    run that delivered another, on the same dispatch plan (Fig. 7(a):
    H and I hold kSC, I and Y hold kP)."""
    extended = minimally_extend(example.plan, example.policy,
                                example.assignment_7a(),
                                owners=example.owners)
    keys = establish_keys(extended, example.policy)
    plan = dispatch(extended, keys, owners=example.owners, user="U")
    keyed = sum(1 for fragment in plan.fragments.values()
                if fragment.key_names)
    runtime = build_runtime(
        example.policy, list(example.subjects),
        {"H": {"Hosp": example_tables["Hosp"]},
         "I": {"Ins": example_tables["Ins"]}}, user="U")
    held = DistributedKeys.from_assignment(keys)
    first, _ = runtime.run(plan, extended, keys, held)
    warm, trace = runtime.run(plan, extended, keys, held)
    assert trace.fragment_cache_hits == len(trace.fragments_run)
    fresh, trace = runtime.run(plan, extended, keys,
                               DistributedKeys.from_assignment(keys))
    assert keyed >= 3
    assert trace.fragment_cache_hits <= len(trace.fragments_run) - keyed
    assert fresh.sorted_rows() == warm.sorted_rows() == first.sorted_rows()


def test_rerun_under_fresh_keys_ships_tokens_of_the_fresh_keys(
        example, example_tables, monkeypatch):
    """Each subject keeps the key stores its envelopes delivered, but a
    run on the same dispatch plan under fresh key material seals what
    it hands on under the keys that run delivered: every sealed column
    moved between subjects opens under the fresh master store."""
    extended = minimally_extend(example.plan, example.policy,
                                example.assignment_7a(),
                                owners=example.owners)
    keys = establish_keys(extended, example.policy)
    plan = dispatch(extended, keys, owners=example.owners, user="U")
    runtime = build_runtime(
        example.policy, list(example.subjects),
        {"H": {"Hosp": example_tables["Hosp"]},
         "I": {"Ins": example_tables["Ins"]}}, user="U")
    first, _ = runtime.run(plan, extended, keys,
                           DistributedKeys.from_assignment(keys))
    moved = []
    receive = DistributedRuntime._receive_input

    def recording(self, context, producer, consumer, table):
        moved.append(table)
        return receive(self, context, producer, consumer, table)

    monkeypatch.setattr(DistributedRuntime, "_receive_input", recording)
    fresh = DistributedKeys.from_assignment(keys)
    rekeyed, _ = runtime.run(plan, extended, keys, fresh)
    sealed = [(kind, [token for token in column.tokens
                      if token is not None])
              for table in moved
              for kind, column in zip(table.representations,
                                      map(table.column, table.columns))
              if is_sealed(kind)]
    assert len(sealed) >= 2
    for (key_name, scheme), tokens in sealed:
        material = fresh.master.material(key_name)
        if scheme is EncryptionScheme.PAILLIER:
            assert {token.public.n for token in tokens} \
                == {material.paillier_public.n}
        else:  # raises on a tag sealed under any other key
            material.open([token[1] if scheme is EncryptionScheme.OPE
                           else token for token in tokens])
    assert rekeyed.sorted_rows() == first.sorted_rows()


class TestEncryptedEquivalenceOnRandomPlans:
    """Encrypted execution computes the same answers as plaintext."""

    def test_random_scenarios(self, random_scenario):
        import random as stdlib_random

        scenario = random_scenario
        rng = stdlib_random.Random(99)
        catalog = {}
        for relation in scenario.relations:
            rows = [
                tuple(rng.randrange(0, 12)
                      for _ in relation.attribute_names)
                for _ in range(60)
            ]
            catalog[relation.name] = Table(
                relation.name, relation.attribute_names, rows)

        plain = Executor(catalog).execute(scenario.plan)

        candidates = compute_candidates(
            scenario.plan, scenario.policy, scenario.subjects)
        assignment = {}
        for node in scenario.plan.operations():
            if not candidates[node]:
                pytest.skip("unassignable scenario")
            # Prefer a non-user candidate to exercise encryption.
            names = sorted(candidates[node])
            non_user = [n for n in names if n != "U"]
            assignment[node] = (non_user or names)[0]
        extended = minimally_extend(
            scenario.plan, scenario.policy, assignment, deliver_to="U")
        keys = establish_keys(extended, scenario.policy)
        distributed = DistributedKeys.from_assignment(keys)
        encrypted = Executor(
            catalog, keystore=distributed.master).execute(extended.plan)

        assert set(encrypted.columns) == set(plain.columns)
        reordered = encrypted.bulk_project(list(plain.columns))
        got = sorted(map(repr, reordered.rows))
        want = sorted(map(repr, plain.rows))
        assert got == want
