"""Hypothesis: encrypted evaluation agrees with plaintext evaluation.

For random rows and random conditions, filtering/grouping/joining over
deterministic, OPE, and Paillier representations must produce the same
answers as plaintext execution — the engine-level counterpart of the
model's claim that encryption only changes *visibility*, not semantics.
"""

from hypothesis import given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    GroupBy,
    Join,
    Selection,
)
from repro.core.predicates import (
    AttributeValuePredicate,
    ComparisonOp,
    equals,
)
from repro.core.requirements import EncryptionScheme
from repro.core.schema import Relation
from repro.crypto.keymanager import KeyStore
from repro.engine import Executor, Table
from repro.engine.codec import encrypt_column

ROWS = st.lists(
    st.tuples(st.integers(0, 8), st.integers(-50, 50)),
    min_size=0, max_size=30,
)
OPS = st.sampled_from([ComparisonOp.EQ, ComparisonOp.NEQ, ComparisonOp.LT,
                       ComparisonOp.LE, ComparisonOp.GT, ComparisonOp.GE])

R = Relation("R", ["k", "v"], cardinality=30)
S = Relation("S", ["j", "w"], cardinality=30)


def encrypted_catalog(rows, scheme, attribute="v"):
    store = KeyStore.generate(
        [QueryKey(frozenset({attribute}), scheme)])
    material = store.material_for_attribute(attribute)
    position = 1 if attribute == "v" else 0
    enc_rows = [
        tuple(encrypt_column(material, [cell])[0] if i == position else cell
              for i, cell in enumerate(row))
        for row in rows
    ]
    return {"R": Table("R", ("k", "v"), enc_rows)}, store


class TestSelectionEquivalence:
    @given(ROWS, OPS, st.integers(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_ope_range_selection(self, rows, op, threshold):
        plain = Executor({"R": Table("R", ("k", "v"), rows)}).execute(
            Selection(BaseRelationNode(R),
                      AttributeValuePredicate("v", op, threshold)))
        catalog, store = encrypted_catalog(rows, EncryptionScheme.OPE)
        encrypted = Executor(catalog, keystore=store).execute(
            Selection(BaseRelationNode(R),
                      AttributeValuePredicate("v", op, threshold)))
        assert len(encrypted) == len(plain)
        assert sorted(r[0] for r in encrypted.rows) \
            == sorted(r[0] for r in plain.rows)

    @given(ROWS, st.integers(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_equality_selection(self, rows, needle):
        predicate = AttributeValuePredicate("v", ComparisonOp.EQ, needle)
        plain = Executor({"R": Table("R", ("k", "v"), rows)}).execute(
            Selection(BaseRelationNode(R), predicate))
        catalog, store = encrypted_catalog(
            rows, EncryptionScheme.DETERMINISTIC)
        encrypted = Executor(catalog, keystore=store).execute(
            Selection(BaseRelationNode(R), predicate))
        assert len(encrypted) == len(plain)


class TestAggregationEquivalence:
    @given(ROWS)
    @settings(max_examples=10, deadline=None)
    def test_paillier_sum_per_group(self, rows):
        node = GroupBy(BaseRelationNode(R), ["k"], Aggregate(
            AggregateFunction.SUM, "v", alias="total"))
        plain = Executor({"R": Table("R", ("k", "v"), rows)}).execute(node)
        from repro.core.operators import Decrypt

        store = KeyStore.generate([QueryKey(
            frozenset({"v", "total"}), EncryptionScheme.PAILLIER)])
        material = store.material_for_attribute("v")
        catalog = {"R": Table("R", ("k", "v"), [
            (k, encrypt_column(material, [v])[0]) for k, v in rows])}
        encrypted_plan = Decrypt(
            GroupBy(BaseRelationNode(R), ["k"], Aggregate(
                AggregateFunction.SUM, "v", alias="total")),
            ["total"],
        )
        encrypted = Executor(catalog, keystore=store).execute(
            encrypted_plan)
        got = {row[0]: row[1] for row in encrypted.rows}
        want = {row[0]: row[1] for row in plain.rows}
        assert got == want

    @given(ROWS)
    @settings(max_examples=10, deadline=None)
    def test_ope_min_per_group(self, rows):
        from repro.core.operators import Decrypt

        node = GroupBy(BaseRelationNode(R), ["k"], Aggregate(
            AggregateFunction.MIN, "v", alias="lo"))
        plain = Executor({"R": Table("R", ("k", "v"), rows)}).execute(node)
        # One key covering both the source and its alias, as Def. 6.1's
        # equivalence clustering produces in real plans.
        store = KeyStore.generate([QueryKey(
            frozenset({"v", "lo"}), EncryptionScheme.OPE)])
        material = store.material_for_attribute("v")
        catalog = {"R": Table("R", ("k", "v"), [
            (k, encrypt_column(material, [v])[0]) for k, v in rows])}
        encrypted_plan = Decrypt(
            GroupBy(BaseRelationNode(R), ["k"], Aggregate(
                AggregateFunction.MIN, "v", alias="lo")),
            ["lo"],
        )
        encrypted = Executor(catalog, keystore=store).execute(
            encrypted_plan)
        got = {row[0]: row[1] for row in encrypted.rows}
        want = {row[0]: row[1] for row in plain.rows}
        assert got == want


class TestJoinEquivalence:
    @given(ROWS, ROWS)
    @settings(max_examples=15, deadline=None)
    def test_deterministic_equi_join(self, left_rows, right_rows):
        left = Table("R", ("k", "v"), left_rows)
        right = Table("S", ("j", "w"), right_rows)
        node = Join(BaseRelationNode(R), BaseRelationNode(S),
                    equals("k", "j"))
        plain = Executor({"R": left, "S": right}).execute(node)

        store = KeyStore.generate([QueryKey(
            frozenset({"k", "j"}), EncryptionScheme.DETERMINISTIC)])
        material = store.material_for_attribute("k")
        enc_left = Table("R", ("k", "v"), [
            (encrypt_column(material, [k])[0], v) for k, v in left_rows])
        enc_right = Table("S", ("j", "w"), [
            (encrypt_column(material, [j])[0], w) for j, w in right_rows])
        encrypted = Executor(
            {"R": enc_left, "S": enc_right}, keystore=store
        ).execute(Join(BaseRelationNode(R), BaseRelationNode(S),
                       equals("k", "j")))
        assert len(encrypted) == len(plain)
        assert sorted((r[1], r[3]) for r in encrypted.rows) \
            == sorted((r[1], r[3]) for r in plain.rows)

