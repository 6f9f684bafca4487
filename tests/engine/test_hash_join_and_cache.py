"""Hash-partitioned joins, compiled residuals, bulk table APIs, and an
executor that sees every change to its inputs on the next execute."""

import random
from collections import Counter

import pytest

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
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
)
from repro.core.requirements import EncryptionScheme
from repro.core.schema import Relation
from repro.crypto.keymanager import KeyStore
from repro.engine import EncryptedValue, Executor, Table
from repro.engine.codec import encrypt_column
from repro.exceptions import ExecutionError

from oracles.nested_loop import nested_loop_join

R = Relation("R", ["a", "b"], cardinality=100)
S = Relation("S", ["k", "w"], cardinality=100)
COUNT_BY_A = GroupBy(BaseRelationNode(R), ["a"],
                     Aggregate(AggregateFunction.COUNT, alias="n"))


def random_catalog(seed=1, left_rows=60, right_rows=80):
    rng = random.Random(seed)
    left = Table("R", ("a", "b"), [
        (rng.randrange(10), rng.randrange(100)) for _ in range(left_rows)
    ])
    right = Table("S", ("k", "w"), [
        (rng.randrange(10), rng.randrange(100)) for _ in range(right_rows)
    ])
    return {"R": left, "S": right}


def join_node(*predicates):
    return Join(BaseRelationNode(R), BaseRelationNode(S),
                Conjunction(list(predicates)))


def encrypted_selection():
    """(store, table, node): a deterministic key for ``a``, R(a=1, b=2)
    with ``a`` encrypted under it, and σ[a=1] over R — which only an
    executor holding that key can evaluate."""
    from repro.core.keys import QueryKey
    from repro.core.requirements import EncryptionScheme
    from repro.crypto.keymanager import KeyStore
    from repro.engine.codec import encrypt_column

    store = KeyStore.generate(
        [QueryKey(frozenset({"a"}), EncryptionScheme.DETERMINISTIC)])
    material = store.material_for_attribute("a")
    table = Table("R", ("a", "b"), [(encrypt_column(material, [1])[0], 2)])
    node = Selection(BaseRelationNode(R),
                     AttributeValuePredicate("a", ComparisonOp.EQ, 1))
    return store, table, node


def sealed_keys_catalog(scheme, nulls, seed=7):
    """:func:`random_catalog` with the join keys ``a`` and ``k`` sealed
    under one key of ``scheme``; with ``nulls`` every fifth key is NULL."""
    store = KeyStore.generate([QueryKey(frozenset({"a", "k"}), scheme)])
    material = store.material_for_attribute("a")
    sealed = {}
    for name, table in random_catalog(seed).items():
        key = table.columns[0]
        values = [None if nulls and index % 5 == 0 else value
                  for index, value in enumerate(table.column_values(key))]
        sealed[name] = table.with_column(
            key, encrypt_column(material, values))
    return sealed


def both_strategies(catalog, node):
    hashed = Executor(catalog).execute(node)
    reference = nested_loop_join(node, catalog["R"], catalog["S"])
    return hashed, reference


class TestHashJoinEquivalence:
    def test_equality_plus_residual(self):
        node = join_node(
            AttributeComparisonPredicate("a", ComparisonOp.EQ, "k"),
            AttributeComparisonPredicate("b", ComparisonOp.LT, "w"),
        )
        hashed, reference = both_strategies(random_catalog(), node)
        assert len(hashed) > 0
        assert hashed.same_content(reference)

    def test_flipped_equality_still_hash_joins(self):
        # The conjunct names the right operand's attribute first.
        node = join_node(
            AttributeComparisonPredicate("k", ComparisonOp.EQ, "a"),
            AttributeComparisonPredicate("w", ComparisonOp.GE, "b"),
        )
        hashed, reference = both_strategies(random_catalog(2), node)
        assert hashed.same_content(reference)

    def test_multi_equality_composite_key(self):
        node = join_node(
            AttributeComparisonPredicate("a", ComparisonOp.EQ, "k"),
            AttributeComparisonPredicate("b", ComparisonOp.EQ, "w"),
        )
        hashed, reference = both_strategies(
            random_catalog(3, left_rows=200, right_rows=200), node)
        assert hashed.same_content(reference)

    def test_pure_theta_join_falls_back(self):
        node = join_node(
            AttributeComparisonPredicate("a", ComparisonOp.LT, "k"))
        hashed, reference = both_strategies(random_catalog(4), node)
        assert hashed.same_content(reference)

    def test_same_side_residual(self):
        # a = k is hashable; a < b compares two left-operand attributes.
        node = join_node(
            AttributeComparisonPredicate("a", ComparisonOp.EQ, "k"),
            AttributeComparisonPredicate("a", ComparisonOp.LT, "b"),
        )
        hashed, reference = both_strategies(random_catalog(5), node)
        assert hashed.same_content(reference)

    def test_build_side_selection_is_transparent(self):
        # Equal results whichever operand is smaller (the hash table is
        # built on the smaller side).
        node = join_node(
            AttributeComparisonPredicate("a", ComparisonOp.EQ, "k"),
            AttributeComparisonPredicate("b", ComparisonOp.NEQ, "w"),
        )
        small_left = random_catalog(6, left_rows=10, right_rows=150)
        small_right = random_catalog(6, left_rows=150, right_rows=10)
        for catalog in (small_left, small_right):
            hashed, reference = both_strategies(catalog, node)
            assert hashed.same_content(reference)

    def test_null_keys_behave_identically_across_strategies(self):
        catalog = {
            "R": Table("R", ("a", "b"), [(None, 1), (1, 2)]),
            "S": Table("S", ("k", "w"), [(None, 3), (1, 4)]),
        }
        node = join_node(
            AttributeComparisonPredicate("a", ComparisonOp.EQ, "k"))
        hashed, reference = both_strategies(catalog, node)
        assert hashed.same_content(reference)

    @pytest.mark.parametrize("nulls", [False, True])
    @pytest.mark.parametrize("scheme", [EncryptionScheme.DETERMINISTIC,
                                        EncryptionScheme.OPE])
    def test_same_key_token_columns(self, scheme, nulls):
        """Key columns of one DETERMINISTIC or OPE signature hash on
        their raw tokens: the join equals the reference, and group-by
        partitions exactly as the order tokens do, cells kept."""
        catalog = sealed_keys_catalog(scheme, nulls)
        for node in (
            join_node(AttributeComparisonPredicate("a", ComparisonOp.EQ, "k")),
            join_node(AttributeComparisonPredicate("k", ComparisonOp.EQ, "a"),
                      AttributeComparisonPredicate("b", ComparisonOp.LT, "w")),
        ):
            hashed, reference = both_strategies(catalog, node)
            assert len(hashed) > 0
            # Not same_content: its repr order ties on OPE token prefixes.
            assert Counter(hashed.rows) == Counter(reference.rows)
        grouped = Executor(catalog).execute(COUNT_BY_A)
        expected = {}
        for cell, _ in catalog["R"].rows:
            key = None if cell is None else cell.token
            expected.setdefault(key, [cell, 0])[1] += 1
        assert grouped.rows == [tuple(group) for group in expected.values()]
        assert all(type(row[0]) is EncryptedValue for row in grouped.rows
                   if row[0] is not None)
        assert (None in expected) is nulls

    def test_ungroupable_schemes_still_raise_as_hash_keys(self):
        for scheme in (EncryptionScheme.RANDOMIZED, EncryptionScheme.PAILLIER):
            catalog = sealed_keys_catalog(scheme, nulls=False)
            node = join_node(
                AttributeComparisonPredicate("a", ComparisonOp.EQ, "k"))
            with pytest.raises(ExecutionError, match="cannot be grouped"):
                Executor(catalog).execute(node)
            with pytest.raises(ExecutionError, match="cannot be grouped"):
                Executor(catalog).execute(COUNT_BY_A)

    def test_incomparable_key_representations_raise_in_both_strategies(self):
        # Ciphertexts under different keys (or plaintext vs ciphertext)
        # can never hash-match; the reference strategy raises, so the
        # hash path must raise too instead of silently returning [].
        from repro.core.keys import QueryKey
        from repro.core.requirements import EncryptionScheme
        from repro.crypto.keymanager import KeyStore
        from repro.engine.codec import encrypt_column

        def det_store(names):
            return KeyStore.generate(
                [QueryKey(frozenset(names), EncryptionScheme.DETERMINISTIC)])

        k1 = det_store({"a"}).material_for_attribute("a")
        k2 = det_store({"k"}).material_for_attribute("k")
        node = join_node(
            AttributeComparisonPredicate("a", ComparisonOp.EQ, "k"))
        cross_key = {
            "R": Table("R", ("a", "b"), [(encrypt_column(k1, [1])[0], 0)]),
            "S": Table("S", ("k", "w"), [(encrypt_column(k2, [1])[0], 0)]),
        }
        plain_vs_enc = {
            "R": Table("R", ("a", "b"), [(1, 0)]),
            "S": Table("S", ("k", "w"), [(encrypt_column(k2, [1])[0], 0)]),
        }
        for catalog in (cross_key, plain_vs_enc):
            with pytest.raises(ExecutionError):
                Executor(catalog).execute(node)
            with pytest.raises(ExecutionError):
                nested_loop_join(node, catalog["R"], catalog["S"])


class TestSubtreeCache:
    """An executor holds no results, so the next ``execute`` sees every
    change to its inputs.  (The class and test names are the ids these
    cases have had since the executor memoized subtree results.)"""

    def test_catalog_is_a_private_copy(self):
        catalog = random_catalog()
        executor = Executor(catalog)
        catalog["R"] = Table("R", ("a", "b"), [])
        assert len(executor.execute(BaseRelationNode(R))) > 0

    def test_catalog_mutation_invalidates_cache(self):
        node = BaseRelationNode(R)
        executor = Executor(random_catalog())
        first = executor.execute(node)
        assert len(first) > 0
        executor.catalog["R"] = Table("R", ("a", "b"), [])
        assert len(executor.execute(node)) == 0

    def test_catalog_ior_invalidates_cache(self):
        node = BaseRelationNode(R)
        executor = Executor(random_catalog())
        first = executor.execute(node)
        assert len(first) > 0
        executor.catalog |= {"R": Table("R", ("a", "b"), [])}
        assert len(executor.execute(node)) == 0

    def test_catalog_reassignment_invalidates_cache(self):
        node = BaseRelationNode(R)
        executor = Executor(random_catalog())
        executor.execute(node)
        executor.catalog = {"R": Table("R", ("a", "b"), [(9, 9)])}
        assert executor.execute(node).rows == [(9, 9)]

    def test_udf_swap_invalidates_cache(self):
        from repro.core.operators import Udf

        node = Udf(BaseRelationNode(R), ["b"], "b", name="f")
        executor = Executor(
            {"R": Table("R", ("a", "b"), [(1, 2)])},
            udfs={"f": lambda args: args["b"] * 10},
        )
        assert executor.execute(node).rows == [(1, 20)]
        executor.udfs["f"] = lambda args: args["b"] + 100
        assert executor.execute(node).rows == [(1, 102)]

    def test_strategy_and_keystore_rebind_invalidate_cache(self):
        store, encrypted, selection = encrypted_selection()
        executor = Executor({"R": encrypted}, keystore=store)
        assert executor.execute(selection).rows == encrypted.rows
        # Without the key the constant can be neither encrypted nor the
        # column decrypted: the very next execute must fail.
        executor.keystore = None
        with pytest.raises(ExecutionError):
            executor.execute(selection)

    def test_keystore_inplace_add_invalidates_cache(self):
        from repro.crypto.keymanager import KeyStore

        store, encrypted, selection = encrypted_selection()
        held = KeyStore()
        executor = Executor({"R": encrypted}, keystore=held)
        with pytest.raises(ExecutionError):
            executor.execute(selection)
        held.add(store.material_for_attribute("a"))
        assert executor.execute(selection).rows == encrypted.rows


class TestBulkTableApis:
    T = Table("T", ("a", "b", "c"), [
        (1, "x", 10.0), (2, "y", 20.0), (1, "x", 30.0),
    ])

    def test_positions_are_cached(self):
        first = self.T.positions(["c", "a"])
        assert first == (2, 0)
        assert self.T.positions(["c", "a"]) is first

    def test_bulk_project_keeps_every_row_in_order(self):
        out = self.T.bulk_project(["a", "b"])
        assert out.rows == [(1, "x"), (2, "y"), (1, "x")]
        assert out.data[0] is self.T.data[0]
        table = Table("U", ("a", "b"), [(1, "x"), (2, ["list"]), (1, "x")])
        assert table.bulk_project(["b"]).rows == [("x",), (["list"],), ("x",)]

    def test_with_column_shares_every_other_column(self):
        out = self.T.with_column("a", [10, 20, 10])
        assert out.rows == [
            (10, "x", 10.0), (20, "y", 20.0), (10, "x", 30.0),
        ]
        assert out.data[1] is self.T.data[1]
        assert out.data[2] is self.T.data[2]
        with pytest.raises(ExecutionError, match="2 values for 3 rows"):
            self.T.with_column("a", [1, 2])
