"""In-memory engine: tables, expressions, plaintext and encrypted plans."""

import pytest

from repro.core.extension import minimally_extend
from repro.core.keys import QueryKey, establish_keys
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    CartesianProduct,
    Decrypt,
    Encrypt,
    GroupBy,
    Join,
    Projection,
    Selection,
    Udf,
)
from repro.core.plan import QueryPlan
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
    equals,
    value_equals,
)
from repro.core.requirements import EncryptionScheme
from repro.core.schema import Relation
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.engine import Executor, Table
from repro.engine.codec import decrypt_column, encrypt_column
from repro.engine.expressions import compare_encrypted, compare_plain
from repro.engine.values import EncryptedValue
from repro.exceptions import ExecutionError

R = Relation("R", ["a", "b", "c"], cardinality=10)
T = Table("R", ("a", "b", "c"), [
    (1, "x", 10.0), (2, "y", 20.0), (3, "x", 30.0), (4, "z", 40.0),
])


class TestTable:
    def test_shape_validation(self):
        with pytest.raises(ExecutionError):
            Table("t", ("a", "b"), [(1,)])
        with pytest.raises(ExecutionError):
            Table("t", ("a", "a"), [])

    def test_project_keeps_duplicates(self):
        projected = T.bulk_project(["b"])
        assert projected.rows == [("x",), ("y",), ("x",), ("z",)]

    def test_column_access(self):
        assert T.column_values("a") == [1, 2, 3, 4]
        with pytest.raises(ExecutionError):
            T.column_position("zzz")

    def test_iter_dicts(self):
        t = Table("t", ("a",), [(1,), (2,)])
        assert list(t.iter_dicts()) == [{"a": 1}, {"a": 2}]

    def test_same_content_order_insensitive(self):
        shuffled = Table("R", T.columns, list(reversed(T.rows)))
        assert T.same_content(shuffled)


class TestPlaintextOperators:
    def run(self, node):
        return Executor({"R": T}).execute(node)

    def test_selection_ops(self):
        leaf = BaseRelationNode(R)
        eq = self.run(Selection(leaf, value_equals("b", "x")))
        assert len(eq) == 2
        rng = self.run(Selection(BaseRelationNode(R),
                                 AttributeValuePredicate(
                                     "c", ComparisonOp.GE, 30.0)))
        assert len(rng) == 2
        isin = self.run(Selection(BaseRelationNode(R),
                                  AttributeValuePredicate(
                                      "a", ComparisonOp.IN, (1, 4))))
        assert len(isin) == 2
        like = self.run(Selection(BaseRelationNode(R),
                                  AttributeValuePredicate(
                                      "b", ComparisonOp.LIKE, "x%")))
        assert len(like) == 2

    def test_projection_order_follows_child(self):
        out = self.run(Projection(BaseRelationNode(R), ["c", "a"]))
        assert out.columns == ("a", "c")

    def test_join_and_product(self):
        s = Relation("S", ["k", "v"])
        s_table = Table("S", ("k", "v"), [(1, "one"), (3, "three")])
        executor = Executor({"R": T, "S": s_table})
        joined = executor.execute(Join(
            BaseRelationNode(R), BaseRelationNode(s), equals("a", "k")))
        assert len(joined) == 2
        product = executor.execute(CartesianProduct(
            BaseRelationNode(R), BaseRelationNode(s)))
        assert len(product) == 8

    def test_non_equi_join(self):
        s = Relation("S", ["k"])
        s_table = Table("S", ("k",), [(2,), (3,)])
        executor = Executor({"R": T, "S": s_table})
        joined = executor.execute(Join(
            BaseRelationNode(R), BaseRelationNode(s),
            AttributeComparisonPredicate("a", ComparisonOp.LT, "k")))
        # a<k pairs: (1,2), (1,3), (2,3) → 3 rows
        assert len(joined) == 3

    def test_group_by_aggregates(self):
        grouped = self.run(GroupBy(BaseRelationNode(R), ["b"], [
            Aggregate(AggregateFunction.SUM, "c", alias="total"),
            Aggregate(AggregateFunction.MIN, "a", alias="lo"),
            Aggregate(AggregateFunction.COUNT, alias="n"),
        ]))
        by_b = {row["b"]: row for row in grouped.iter_dicts()}
        assert by_b["x"] == {"b": "x", "total": 40.0, "lo": 1, "n": 2}
        assert by_b["z"]["n"] == 1

    def test_global_aggregate(self):
        grouped = self.run(GroupBy(BaseRelationNode(R), [],
                                   Aggregate(AggregateFunction.AVG, "c")))
        assert grouped.rows == [(25.0,)]

    def test_udf(self):
        node = Udf(BaseRelationNode(R), ["c"], "c", name="double")
        executor = Executor(
            {"R": T}, udfs={"double": lambda args: args["c"] * 2})
        out = executor.execute(node)
        assert sorted(out.column_values("c")) == [20.0, 40.0, 60.0, 80.0]

    def test_unknown_udf(self):
        node = Udf(BaseRelationNode(R), ["c"], "c", name="nope")
        with pytest.raises(ExecutionError):
            Executor({"R": T}).execute(node)

    def test_missing_table(self):
        with pytest.raises(ExecutionError):
            Executor({}).execute(BaseRelationNode(R))


class TestEncryptedValues:
    def make_store(self, scheme=EncryptionScheme.DETERMINISTIC):
        return KeyStore.generate([QueryKey(frozenset({"b"}), scheme)])

    def test_codec_roundtrip_all_schemes(self):
        for scheme in EncryptionScheme:
            store = KeyStore.generate(
                [QueryKey(frozenset({"b"}), scheme)])
            material = store.material_for_attribute("b")
            value = 42 if scheme in (EncryptionScheme.PAILLIER,
                                     EncryptionScheme.OPE) else "hello"
            token = encrypt_column(material, [value])[0]
            assert decrypt_column(material, [token])[0] == value

    def test_mixed_comparison_raises(self):
        store = self.make_store()
        material = store.material_for_attribute("b")
        token = encrypt_column(material, ["x"])[0]
        from repro.engine.expressions import compile_comparison

        equal = compile_comparison(ComparisonOp.EQ)
        with pytest.raises(ExecutionError):
            equal(token, "x")
        with pytest.raises(ExecutionError):
            equal("x", token)

    def test_randomized_cannot_group(self):
        material = self.make_store(
            EncryptionScheme.RANDOMIZED).material_for_attribute("b")
        cell = encrypt_column(material, ["x"])[0]
        node = GroupBy(BaseRelationNode(R), ["b"], [
            Aggregate(AggregateFunction.COUNT, alias="n")])
        catalog = {"R": Table("R", T.columns, [(1, cell, 1.0)])}
        with pytest.raises(ExecutionError, match="cannot be grouped"):
            Executor(catalog).execute(node)

    def test_cross_key_comparison_rejected(self):
        a = EncryptedValue("k1", EncryptionScheme.DETERMINISTIC, b"t")
        b = EncryptedValue("k2", EncryptionScheme.DETERMINISTIC, b"t")
        with pytest.raises(ExecutionError, match="different keys"):
            compare_encrypted(a, ComparisonOp.EQ, b)


class TestEncryptedExecution:
    def test_running_example_7a_equals_plaintext(self, example,
                                                 example_tables):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        keys = establish_keys(extended, example.policy)
        distributed = DistributedKeys.from_assignment(keys)
        encrypted = Executor(
            example_tables, keystore=distributed.master
        ).execute(extended.plan)
        plain = Executor(example_tables).execute(example.plan)
        assert encrypted.same_content(plain)

    @pytest.mark.parametrize("figure", ["7a", "7b"])
    def test_record_has_one_row_per_node(self, example, example_tables,
                                         figure):
        """``Executor.record``: one row per node evaluated, ``(node, rows
        in, rows out, values sealed, values opened, seconds)``; an
        Encrypt seals, and a Decrypt opens, every cell of its columns."""
        extended = minimally_extend(
            example.plan, example.policy,
            getattr(example, f"assignment_{figure}")(), owners=example.owners)
        keys = establish_keys(extended, example.policy)
        master = DistributedKeys.from_assignment(keys).master
        engine = Executor(example_tables, keystore=master)
        result = engine.execute(extended.plan)
        assert sorted(id(row[0]) for row in engine.record) \
            == sorted(map(id, extended.plan.postorder()))
        assert engine.record[-1][:3] == (extended.plan.root, 2, len(result))
        for node, rows_in, _, sealed, opened, seconds in engine.record:
            width = len(node.attributes) \
                if isinstance(node, (Encrypt, Decrypt)) else 0
            assert sealed == (rows_in * width if isinstance(node, Encrypt)
                              else 0)
            assert opened == (rows_in * width if isinstance(node, Decrypt)
                              else 0)
            assert seconds >= 0.0
        assert sum(row[3] for row in engine.record) > 0
        assert sum(row[4] for row in engine.record) == 2

    def test_selection_on_encrypted_without_key_fails(self, example,
                                                      example_tables):
        from repro.exceptions import ReproError

        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7b(),
            owners=example.owners,
        )
        with pytest.raises(ReproError):
            # Fails at the source encryption (no key material) — and
            # would fail at the encrypted selection even if it got there.
            Executor(example_tables, keystore=KeyStore()).execute(
                extended.plan)

    def test_note2_decrypt_and_compare(self):
        # A range condition over deterministic tokens is impossible on
        # ciphertext; holding the key, the evaluator falls back to
        # plaintext comparison (note 2 of §5).
        store = KeyStore.generate([
            QueryKey(frozenset({"c"}), EncryptionScheme.DETERMINISTIC),
        ])
        material = store.material_for_attribute("c")
        encrypted_rows = [
            (row[0], row[1], encrypt_column(material, [row[2]])[0])
            for row in T.rows
        ]
        catalog = {"R": Table("R", T.columns, encrypted_rows)}
        node = Selection(BaseRelationNode(R), AttributeValuePredicate(
            "c", ComparisonOp.GT, 25.0))
        out = Executor(catalog, keystore=store).execute(node)
        assert len(out) == 2
        # Without the key the same plan must fail.
        with pytest.raises(ExecutionError):
            Executor(catalog, keystore=KeyStore()).execute(node)
