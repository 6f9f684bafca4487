"""SQL NULL semantics in aggregation, plaintext and encrypted.

The ISSUE-1 repros: ``COUNT(attr)`` must skip NULLs, ``SUM``/``AVG``/
``MIN``/``MAX`` over an all-NULL group must return NULL instead of
raising (``ZeroDivisionError``/``ValueError``) or returning 0, a GroupBy
over an empty input emits zero groups (grouped) or the standard single
row (global), and encrypted aggregation tolerates NULLs exactly like the
plaintext path so the two representations agree on NULL-bearing data.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    Decrypt,
    GroupBy,
)
from repro.core.requirements import EncryptionScheme
from repro.core.schema import Relation
from repro.crypto.keymanager import KeyStore
from repro.engine import Executor, Table
from repro.engine.codec import encrypt_value
from repro.exceptions import ExecutionError

from oracles.nested_loop import nested_loop_join

R = Relation("R", ["k", "v"], cardinality=10)

NULLY = Table("R", ("k", "v"), [
    ("a", 10), ("a", None), ("a", 30),
    ("b", None), ("b", None),
    ("c", 7),
])


def run(table, node):
    return Executor({"R": table}).execute(node)


def grouped(function, alias="out"):
    return GroupBy(BaseRelationNode(R), ["k"],
                   Aggregate(function, "v", alias=alias))


def by_group(table):
    return {row[0]: row[1] for row in table.rows}


class TestPlaintextNullSkipping:
    def test_count_attribute_skips_nulls(self):
        out = by_group(run(NULLY, grouped(AggregateFunction.COUNT)))
        assert out == {"a": 2, "b": 0, "c": 1}

    def test_count_star_counts_all_rows(self):
        node = GroupBy(BaseRelationNode(R), ["k"],
                       Aggregate(AggregateFunction.COUNT, alias="n"))
        out = by_group(run(NULLY, node))
        assert out == {"a": 3, "b": 2, "c": 1}

    def test_sum_ignores_nulls_and_all_null_is_null(self):
        out = by_group(run(NULLY, grouped(AggregateFunction.SUM)))
        assert out == {"a": 40, "b": None, "c": 7}

    def test_avg_ignores_nulls_and_all_null_is_null(self):
        out = by_group(run(NULLY, grouped(AggregateFunction.AVG)))
        assert out == {"a": 20.0, "b": None, "c": 7.0}

    def test_min_max_ignore_nulls_and_all_null_is_null(self):
        lo = by_group(run(NULLY, grouped(AggregateFunction.MIN)))
        hi = by_group(run(NULLY, grouped(AggregateFunction.MAX)))
        assert lo == {"a": 10, "b": None, "c": 7}
        assert hi == {"a": 30, "b": None, "c": 7}


class TestEmptyInput:
    EMPTY = Table("R", ("k", "v"), [])

    def test_grouped_aggregate_emits_zero_groups(self):
        out = run(self.EMPTY, grouped(AggregateFunction.SUM))
        assert out.columns == ("k", "out")
        assert out.rows == []

    def test_global_aggregate_emits_standard_row(self):
        node = GroupBy(BaseRelationNode(R), [], [
            Aggregate(AggregateFunction.COUNT, alias="n"),
            Aggregate(AggregateFunction.SUM, "v", alias="total"),
            Aggregate(AggregateFunction.AVG, "v", alias="mean"),
            Aggregate(AggregateFunction.MIN, "v", alias="lo"),
            Aggregate(AggregateFunction.MAX, "v", alias="hi"),
        ])
        out = run(self.EMPTY, node)
        assert out.columns == ("n", "total", "mean", "lo", "hi")
        assert out.rows == [(0, None, None, None, None)]

    def test_global_count_attribute_over_empty_is_zero(self):
        node = GroupBy(BaseRelationNode(R), [],
                       Aggregate(AggregateFunction.COUNT, "v", alias="n"))
        assert run(self.EMPTY, node).rows == [(0,)]


def encrypted_catalog(rows, scheme, extra_names=()):
    """Encrypt the non-NULL ``v`` cells under one key; NULLs stay NULL."""
    store = KeyStore.generate(
        [QueryKey(frozenset({"v"}) | frozenset(extra_names), scheme)])
    material = store.material_for_attribute("v")
    enc_rows = [
        (k, None if v is None else encrypt_value(material, v))
        for k, v in rows
    ]
    return {"R": Table("R", ("k", "v"), enc_rows)}, store


class TestEncryptedNullSkipping:
    def test_ope_min_max_skip_nulls(self):
        catalog, store = encrypted_catalog(
            NULLY.rows, EncryptionScheme.OPE, extra_names=("out",))
        for function, want in (
            (AggregateFunction.MIN, {"a": 10, "b": None, "c": 7}),
            (AggregateFunction.MAX, {"a": 30, "b": None, "c": 7}),
        ):
            node = Decrypt(grouped(function), ["out"])
            out = by_group(Executor(catalog, keystore=store).execute(node))
            assert out == want

    def test_paillier_sum_avg_skip_nulls(self):
        catalog, store = encrypted_catalog(
            NULLY.rows, EncryptionScheme.PAILLIER, extra_names=("out",))
        total = by_group(Executor(catalog, keystore=store).execute(
            Decrypt(grouped(AggregateFunction.SUM), ["out"])))
        assert total["b"] is None
        assert total["a"] == 40 and total["c"] == 7
        mean = by_group(Executor(catalog, keystore=store).execute(
            Decrypt(grouped(AggregateFunction.AVG), ["out"])))
        # The Paillier average divides by the non-NULL count.
        assert mean["b"] is None
        assert abs(mean["a"] - 20.0) < 1e-6 and abs(mean["c"] - 7.0) < 1e-6

    def test_count_over_encrypted_skips_nulls(self):
        catalog, store = encrypted_catalog(
            NULLY.rows, EncryptionScheme.DETERMINISTIC)
        out = by_group(Executor(catalog, keystore=store).execute(
            grouped(AggregateFunction.COUNT)))
        assert out == {"a": 2, "b": 0, "c": 1}

    def test_null_vs_ciphertext_matches_plaintext_null_semantics(self):
        # Encrypt passes NULL through, so comparisons may legitimately
        # see (None, EncryptedValue) pairs.  They must not raise, and
        # they must answer exactly like plaintext NULL comparisons so
        # extended plans agree with their originals: only ≠ holds.
        from repro.engine import compile_comparison
        from repro.engine.expressions import compare_values
        from repro.core.predicates import ComparisonOp

        catalog, store = encrypted_catalog(
            [("a", 1)], EncryptionScheme.OPE)
        token = catalog["R"].rows[0][1]
        for op in (ComparisonOp.EQ, ComparisonOp.NEQ, ComparisonOp.LT,
                   ComparisonOp.GE):
            plain_want = compile_comparison(op)(None, 1)
            assert compile_comparison(op)(None, token) is plain_want
            assert compile_comparison(op)(token, None) is plain_want
            assert compare_values(None, op, token) is plain_want
            assert compare_values(token, op, None) is plain_want
        assert compile_comparison(ComparisonOp.NEQ)(None, token) is True

    def test_like_over_null_is_unknown(self):
        from repro.core.predicates import AttributeValuePredicate, ComparisonOp
        from repro.core.operators import Selection

        table = Table("R", ("k", "v"), [("Alice", 1), (None, 2)])
        out = run(table, Selection(
            BaseRelationNode(R),
            AttributeValuePredicate("k", ComparisonOp.LIKE, "A%")))
        assert out.rows == [("Alice", 1)]

    def test_join_residual_over_null_bearing_encrypted_column(self):
        # Both join strategies must agree (False, no crash) when a
        # residual compares a NULL against an OPE token.
        from repro.core.operators import BaseRelationNode, Join
        from repro.core.predicates import (
            AttributeComparisonPredicate,
            ComparisonOp,
            Conjunction,
        )

        S = Relation("S", ["j", "w"], cardinality=10)
        store = KeyStore.generate(
            [QueryKey(frozenset({"v", "w"}), EncryptionScheme.OPE)])
        material = store.material_for_attribute("v")

        def enc(x):
            return None if x is None else encrypt_value(material, x)

        catalog = {
            "R": Table("R", ("k", "v"), [(1, enc(5)), (2, enc(None))]),
            "S": Table("S", ("j", "w"), [(1, enc(3)), (2, enc(9))]),
        }
        node = Join(
            BaseRelationNode(R), BaseRelationNode(S),
            Conjunction([
                AttributeComparisonPredicate("k", ComparisonOp.EQ, "j"),
                AttributeComparisonPredicate("v", ComparisonOp.GT, "w"),
            ]),
        )
        hashed = Executor(catalog).execute(node)
        reference = nested_loop_join(node, catalog["R"], catalog["S"])
        assert hashed.same_content(reference)
        assert len(hashed) == 1  # only (k=1, v=5) > (j=1, w=3) survives

    def test_true_mix_still_rejected(self):
        # NULLs are tolerated, genuine plaintext/ciphertext mixes are not.
        catalog, store = encrypted_catalog(
            [("a", 1), ("a", 2)], EncryptionScheme.PAILLIER)
        table = catalog["R"]
        mixed = Table("R", table.columns,
                      [table.rows[0], ("a", 5)])
        with pytest.raises(ExecutionError):
            Executor({"R": mixed}, keystore=store).execute(
                grouped(AggregateFunction.SUM))


ROWS_WITH_NULLS = st.lists(
    st.tuples(st.integers(0, 3),
              st.one_of(st.none(), st.integers(-50, 50))),
    min_size=0, max_size=25,
)


class TestPlaintextEncryptedEquivalence:
    @given(ROWS_WITH_NULLS)
    @settings(max_examples=10, deadline=None)
    def test_paillier_sum_and_count_agree_on_random_nulls(self, rows):
        node = GroupBy(BaseRelationNode(R), ["k"], [
            Aggregate(AggregateFunction.SUM, "v", alias="total"),
            Aggregate(AggregateFunction.COUNT, "v", alias="n"),
        ])
        plain = Executor({"R": Table("R", ("k", "v"), rows)}).execute(node)
        catalog, store = encrypted_catalog(
            rows, EncryptionScheme.PAILLIER, extra_names=("total",))
        encrypted = Executor(catalog, keystore=store).execute(
            Decrypt(node, ["total"]))
        got = {row[0]: (row[1], row[2]) for row in encrypted.rows}
        want = {row[0]: (row[1], row[2]) for row in plain.rows}
        assert got == want

    @given(ROWS_WITH_NULLS)
    @settings(max_examples=10, deadline=None)
    def test_ope_min_agrees_on_random_nulls(self, rows):
        node = GroupBy(BaseRelationNode(R), ["k"],
                       Aggregate(AggregateFunction.MIN, "v", alias="lo"))
        plain = Executor({"R": Table("R", ("k", "v"), rows)}).execute(node)
        catalog, store = encrypted_catalog(
            rows, EncryptionScheme.OPE, extra_names=("lo",))
        encrypted = Executor(catalog, keystore=store).execute(
            Decrypt(node, ["lo"]))
        assert {r[0]: r[1] for r in encrypted.rows} \
            == {r[0]: r[1] for r in plain.rows}
