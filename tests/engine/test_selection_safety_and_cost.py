"""Safety and cost of the selection column kernel.

What a selection may read (only surviving rows, every MAC verified,
only the evaluating subject's own keys for note 2) and how often it may
decide (once per column and representation group, never per row).
``tests/properties/test_selection_kernel.py`` holds the equivalence
with the row closure.
"""

import pytest

import repro.engine.codec as codec_module
import repro.engine.executor as executor_module
from repro.core.keys import QueryKey
from repro.core.operators import BaseRelationNode, Selection
from repro.core.predicates import (
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
)
from repro.core.requirements import EncryptionScheme
from repro.core.schema import Relation
from repro.crypto.keymanager import KeyStore
from repro.engine import EncryptedValue, Executor, Table
from repro.engine.codec import encrypt_column
from repro.engine.expressions import ConstantEncryptor
from repro.exceptions import CryptoError, ExecutionError
from repro.service import QueryService
from repro.tpch import (
    AUTHORITY_TABLES,
    TPCH_UDFS,
    build_tpch_schema,
    generate,
    query,
    scenario,
)

R = Relation("R", ["k", "d"], cardinality=8)
KEPT_FIRST = Conjunction([
    AttributeValuePredicate("k", ComparisonOp.GE, 4),
    AttributeValuePredicate("d", ComparisonOp.GE, 3),
    AttributeValuePredicate("d", ComparisonOp.LE, 6),
])


def store_for(scheme):
    return KeyStore.generate([QueryKey(frozenset({"d"}), scheme)])


def catalog(store, tampered_row=None):
    """R(k, d) with k = d = 0…7 and d encrypted; optionally one byte of
    one row's token flipped."""
    cells = encrypt_column(store.material_for_attribute("d"), range(8))
    if tampered_row is not None:
        cell = cells[tampered_row]
        token = bytes([cell.token[0] ^ 1]) + cell.token[1:]
        cells[tampered_row] = EncryptedValue(cell.key_name, cell.scheme,
                                             token)
    return {"R": Table("R", ("k", "d"), list(zip(range(8), cells)))}


def select(store, tables, predicate=KEPT_FIRST, **executor):
    return Executor(tables, keystore=store, **executor).execute(
        Selection(BaseRelationNode(R), predicate))


class TestTamperedToken:
    def test_surviving_row_is_verified_before_it_is_compared(self):
        store = store_for(EncryptionScheme.RANDOMIZED)
        with pytest.raises(CryptoError, match="authentication failed"):
            select(store, catalog(store, tampered_row=5))

    def test_row_an_earlier_conjunct_eliminated_is_not_touched(self):
        store = store_for(EncryptionScheme.RANDOMIZED)
        clean = select(store, catalog(store))
        assert [row[0] for row in clean.rows] == [4, 5, 6]
        tampered = select(store, catalog(store, tampered_row=2))
        assert [row[0] for row in tampered.rows] == [4, 5, 6]


class TestNoteTwoReadsOnlyTheOwnKeystore:
    """The constant store stands for the dispatching user (Figure 8):
    it may formulate a condition on tokens, never lend a decryption."""

    def test_key_in_the_constant_store_alone_does_not_decrypt(self):
        store = store_for(EncryptionScheme.RANDOMIZED)
        with pytest.raises(ExecutionError, match="not held; cannot decrypt"):
            select(KeyStore(), catalog(store), constant_keystore=store)

    def test_order_on_deterministic_tokens_needs_the_own_key_too(self):
        store = store_for(EncryptionScheme.DETERMINISTIC)
        equal = AttributeValuePredicate("d", ComparisonOp.EQ, 5)
        kept = select(KeyStore(), catalog(store), equal,
                      constant_keystore=store)
        assert [row[0] for row in kept.rows] == [5]
        with pytest.raises(ExecutionError, match="not held"):
            select(KeyStore(), catalog(store), constant_keystore=store)
        assert [row[0] for row in select(store, catalog(store)).rows] \
            == [4, 5, 6]


class TestSelectionCost:
    def test_q7_decides_once_per_column_not_once_per_row(self, monkeypatch):
        """Clock-free guard on TPC-H Q7 under UAPenc: A2 encrypts
        ``l_shipdate`` (RANDOMIZED) and filters it with two conjuncts —
        one ``decrypt_column`` call serves both; P1's ``n_name IN (…)``
        over the DETERMINISTIC column encrypts its constants once."""
        schema = build_tpch_schema(0.001)
        data = generate(0.001, seed=107)
        setting = scenario("UAPenc", schema)
        service = QueryService(
            schema, setting.policy, setting.subjects, setting.owners,
            {authority: {name: data.table(name) for name in names}
             for authority, names in AUTHORITY_TABLES.items()},
            user=setting.user, udfs=TPCH_UDFS)
        calls = []

        def counted(label, function):
            def wrapper(*args, **kwargs):
                calls.append((label, args))
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(executor_module, "decrypt_column", counted(
            "decrypt_column", executor_module.decrypt_column))
        for name in ("match_constant", "match_tokens"):
            monkeypatch.setattr(ConstantEncryptor, name, counted(
                name, getattr(ConstantEncryptor, name)))
        raw_select = Executor._select
        selections = []

        def counting_select(self, node, child):
            before = len(calls)
            try:
                return raw_select(self, node, child)
            finally:
                selections.append((node, len(child), calls[before:]))

        monkeypatch.setattr(Executor, "_select", counting_select)
        outcome = service.execute(query(7).sql)

        assert ("reqA23", "A2") in outcome.trace.fragments_run
        by_text = {str(node.predicate): (rows, made)
                   for node, rows, made in selections}
        rows, made = by_text[
            "l_shipdate>=1995-01-01 AND l_shipdate<=1996-12-31"]
        (label, (material, cells)), = made
        assert label == "decrypt_column"
        assert material.query_key.covers("l_shipdate")
        assert len(cells) == rows > 1000
        assert all(isinstance(cell, EncryptedValue)
                   and cell.scheme is EncryptionScheme.RANDOMIZED
                   for cell in cells)
        _, made = by_text["n_name in ('FRANCE', 'GERMANY')"]
        assert [label for label, _ in made] == ["match_tokens"]
        # Every column here holds one representation, so: one constant
        # encryption per conjunct and one decryption per column, at most.
        for node, _, made in selections:
            labels = [label for label, _ in made]
            assert len(labels) - labels.count("decrypt_column") \
                <= len(list(node.predicate.basic_conditions()))
            assert labels.count("decrypt_column") \
                <= len(node.predicate.attributes())
        # No per-row note-2 entry point is left to call.
        assert not hasattr(codec_module, "try_decrypt")
