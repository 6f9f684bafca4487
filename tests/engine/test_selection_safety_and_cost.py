"""Safety and cost of the selection column kernel.

What a selection may read (only surviving rows, every MAC verified,
only the evaluating subject's own keys for note 2) and how often it may
decide (once per column and representation group, never per row), when
it may run ahead of the Encrypt below it, and how many values a cold
round then seals and opens.  ``tests/properties/test_selection_kernel.py``
holds the equivalence with the row closure.
"""

import pytest

import repro.engine.codec as codec_module
import repro.engine.executor as executor_module
from repro.core.keys import QueryKey
from repro.core.operators import BaseRelationNode, Encrypt, Selection
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
from repro.engine.executor import physical_step
from repro.engine.expressions import ConstantEncryptor
from repro.exceptions import CryptoError, ExecutionError
from repro.service import QueryService
from repro.tpch import (
    AUTHORITY_TABLES,
    TPCH_UDFS,
    all_queries,
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


def uapenc_service(scale):
    schema = build_tpch_schema(scale)
    data = generate(scale, seed=107)
    setting = scenario("UAPenc", schema)
    return QueryService(
        schema, setting.policy, setting.subjects, setting.owners,
        {authority: {name: data.table(name) for name in names}
         for authority, names in AUTHORITY_TABLES.items()},
        user=setting.user, udfs=TPCH_UDFS)


def count_calls(monkeypatch, calls, owner, name):
    """Append ``(name, args)`` to ``calls`` whenever ``owner.name`` runs."""
    function = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append((name, args))
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def record_selections(monkeypatch, calls):
    """(node, operand, the ``calls`` it made) of every ``_select``."""
    raw_select = Executor._select
    selections = []

    def recording(self, node, child):
        before = len(calls)
        try:
            return raw_select(self, node, child)
        finally:
            selections.append((node, child, calls[before:]))

    monkeypatch.setattr(Executor, "_select", recording)
    return selections


class TestFilterBeforeEncrypt:
    """``σ[k=d](enc[k](R))``: when the selection may run first
    (``tests/properties/test_filter_before_encrypt.py`` has the
    equivalence with plan order)."""

    plan = Selection(Encrypt(BaseRelationNode(R), ["k"]),
                     AttributeComparisonPredicate("k", ComparisonOp.EQ, "d"))

    def test_only_over_an_encrypt_the_evaluator_runs_itself(self):
        sealed = self.plan.children[0]
        assert physical_step(self.plan) == (sealed, self.plan)
        assert physical_step(sealed) == (sealed,)
        received = {id(sealed): catalog(store_for(
            EncryptionScheme.DETERMINISTIC))["R"]}
        assert physical_step(self.plan, received) == (self.plan,)

    def test_only_on_plaintext_predicate_columns(self, monkeypatch):
        """``d`` arrived sealed under the key ``k`` is sealed with: the
        tokens compare after ``enc[k]``; filtering first would have the
        evaluator open ``d``."""
        store = KeyStore.generate([QueryKey(
            frozenset({"k", "d"}), EncryptionScheme.DETERMINISTIC)])
        calls = []
        count_calls(monkeypatch, calls, executor_module, "decrypt_column")
        kept = Executor(catalog(store), keystore=store).execute(self.plan)
        assert len(kept) == 8 and not calls
        assert all(isinstance(cell, EncryptedValue)
                   for row in kept.rows for cell in row)
        plain = {"R": Table("R", ("k", "d"), [(n, n % 2) for n in range(8)])}
        kept = Executor(plain, keystore=store).execute(self.plan)
        assert [row[1] for row in kept.rows] == [0, 1] and not calls


class TestSelectionCost:
    def test_one_decrypt_serves_two_conjuncts_on_a_received_column(
            self, monkeypatch):
        """``d`` arrived RANDOMIZED-encrypted — there is no Encrypt of
        this evaluator's to filter ahead of — so §5 note 2 stands: the
        two conjuncts on ``d`` share one ``decrypt_column`` call, over
        the rows ``k>=4`` kept."""
        store = store_for(EncryptionScheme.RANDOMIZED)
        tables = catalog(store)
        calls = []
        count_calls(monkeypatch, calls, executor_module, "decrypt_column")
        assert [row[0] for row in select(store, tables).rows] == [4, 5, 6]
        (_, (material, cells)), = calls
        assert material.query_key.covers("d")
        assert cells == [row[1] for row in tables["R"].rows[4:]]

    def test_q7_decides_once_per_column_not_once_per_row(self, monkeypatch):
        """Clock-free guard on TPC-H Q7 under UAPenc: A2 filters
        ``l_shipdate`` with two conjuncts on the plaintext it holds,
        *before* it seals the column (RANDOMIZED) — no
        ``decrypt_column``; P1's ``n_name IN (…)`` over the
        DETERMINISTIC column it received encrypts its constants once."""
        service = uapenc_service(0.001)
        calls = []
        count_calls(monkeypatch, calls, executor_module, "decrypt_column")
        for name in ("match_constant", "match_tokens"):
            count_calls(monkeypatch, calls, ConstantEncryptor, name)
        selections = record_selections(monkeypatch, calls)
        outcome = service.execute(query(7).sql)

        assert ("reqA23", "A2") in outcome.trace.fragments_run
        by_text = {str(node.predicate): (child, made)
                   for node, child, made in selections}
        child, made = by_text[
            "l_shipdate>=1995-01-01 AND l_shipdate<=1996-12-31"]
        assert made == []
        cells = child.column_values("l_shipdate")
        assert len(cells) > 1000
        assert not any(isinstance(cell, EncryptedValue) for cell in cells)
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

    def test_cold_round_seals_and_opens_an_exact_number_of_values(
            self, monkeypatch):
        """One cold execution of each of the 17 SQL templates (UAPenc,
        scale 0.002, seed 107).  Before selections ran ahead of their
        own Encrypt: 122,808 sealed, 32,982 opened, 30,421 of those by
        a selection re-opening what its subject had just sealed."""
        service = uapenc_service(0.002)
        calls = []
        for name in ("encrypt_column", "decrypt_column"):
            count_calls(monkeypatch, calls, executor_module, name)
        selections = record_selections(monkeypatch, calls)
        templates = [q.sql for q in all_queries() if q.sql is not None]
        assert len(templates) == 17
        for sql in templates:
            service.execute(sql)
        values = {name: sum(len(args[1]) for label, args in calls
                            if label == name)
                  for name in ("encrypt_column", "decrypt_column")}
        assert values == {"encrypt_column": 96_500, "decrypt_column": 2_561}
        assert not any(made for _, _, made in selections)
