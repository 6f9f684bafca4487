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
from repro.core.operators import (
    BaseRelationNode,
    Encrypt,
    Projection,
    Selection,
)
from repro.core.plan import QueryPlan, physical_step
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
from repro.engine.codec import decrypt_column, encrypt_column
from repro.engine.expressions import ConstantEncryptor
from repro.exceptions import CryptoError, ExecutionError
from repro.service import QueryService
from repro.tpch import (
    TPCH_UDFS,
    build_tpch_schema,
    query,
    scenario,
)

from helpers import authority_tables

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
    cells = list(encrypt_column(store.material_for_attribute("d"),
                                range(8)))
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


def uapenc_service(data):
    schema = build_tpch_schema(data.scale)
    setting = scenario("UAPenc", schema)
    return QueryService(
        schema, setting.policy, setting.subjects, setting.owners,
        authority_tables(data), user=setting.user, udfs=TPCH_UDFS)


def count_calls(monkeypatch, calls, owner, name):
    """Append ``(name, args)`` to ``calls`` whenever ``owner.name`` runs."""
    function = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append((name, args))
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def opened(engine):
    """The values ``engine`` opened, over every node it evaluated."""
    return sum(row[4] for row in engine.record)


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
        plan = QueryPlan(self.plan)
        assert physical_step(plan, self.plan, plan) == (self.plan, sealed)
        assert physical_step(plan, sealed, plan) == (sealed,)
        # The selection's fragment alone: the Encrypt is another's.
        assert physical_step(plan, self.plan, (self.plan,)) == (self.plan,)

    def test_only_on_plaintext_predicate_columns(self):
        """``d`` is sealed below ``enc[k]``, under the key ``k`` is
        sealed with (the profile of ``enc[k]``'s operand shows ``d``
        encrypted): the tokens compare after ``enc[k]``; filtering first
        would compare ``d``'s tokens with ``k``'s plaintext."""
        store = KeyStore.generate([QueryKey(
            frozenset({"k", "d"}), EncryptionScheme.DETERMINISTIC)])
        below = Encrypt(BaseRelationNode(R), ["d"])
        sealed = Selection(Encrypt(below, ["k"]), self.plan.predicate)
        plain = {"R": Table("R", ("k", "d"), [(n, n) for n in range(8)])}
        engine = Executor(plain, keystore=store)
        kept = engine.execute(sealed)
        assert len(kept) == 8 and not opened(engine)
        assert [type(row[0]) for row in engine.record] \
            == [BaseRelationNode, Encrypt, Encrypt, Selection]
        assert all(isinstance(cell, EncryptedValue)
                   for row in kept.rows for cell in row)
        plain = {"R": Table("R", ("k", "d"), [(n, n % 2) for n in range(8)])}
        engine = Executor(plain, keystore=store)
        kept = engine.execute(self.plan)
        assert [row[1] for row in kept.rows] == [0, 1] and not opened(engine)
        assert [type(row[0]) for row in engine.record] \
            == [BaseRelationNode, Selection, Encrypt]


class TestFusedSeal:
    """``π(σ(enc(X)))`` and ``π(enc(X))`` inside one evaluator: σ and π
    run on the plaintext, then the Encrypt seals only the columns π kept
    (``tests/properties/test_filter_before_encrypt.py`` has the
    equivalence with plan order)."""

    sealed = Encrypt(BaseRelationNode(R), ["k", "d"])
    selection = Selection(sealed, KEPT_FIRST)
    plan = Projection(selection, ["k"])

    def test_one_step_unless_a_node_below_the_projection_arrived(self):
        plan = QueryPlan(self.plan)
        assert physical_step(plan, self.plan, plan) == (
            self.selection, self.plan, self.sealed)
        bare = QueryPlan(Projection(Encrypt(BaseRelationNode(R), ["k"]),
                                    ["k"]))
        assert physical_step(bare, bare.root, bare) == (
            bare.root, bare.root.left)
        # The fragment stops above what arrived from another subject.
        for runs in ((self.plan, self.selection), (self.plan,)):
            assert physical_step(plan, self.plan, runs) == (self.plan,)

    def test_seals_the_kept_column_of_the_kept_rows(self):
        store = KeyStore.generate([QueryKey(
            frozenset({"k", "d"}), EncryptionScheme.RANDOMIZED)])
        plain = {"R": Table("R", ("k", "d"), [(n, n) for n in range(8)])}
        engine = Executor(plain, keystore=store)
        kept = engine.execute(self.plan)
        material = store.material_for_attribute("k")
        assert kept.columns == ("k",)
        assert kept.representation("k") == (material.name,
                                            EncryptionScheme.RANDOMIZED)
        assert list(decrypt_column(material, kept.column("k"))) == [4, 5, 6]
        # (node, rows in, rows out, sealed, opened): σ, π, then the seal.
        assert [row[:5] for row in engine.record[1:]] == [
            (self.selection, 8, 3, 0, 0), (self.plan, 3, 3, 0, 0),
            (self.sealed, 3, 3, 3, 0)]

    def test_q7_seals_no_shipdate(self, tpch_data):
        """A2 runs ``π[l_extendedprice,l_orderkey,l_suppkey]`` over
        ``σ[l_shipdate…]`` over ``enc[l_shipdate]`` (UAPenc): the
        Encrypt still runs, and seals none of the >1,000 shipdates π
        drops."""
        service = uapenc_service(tpch_data(0.001, 107))
        sealed = {}
        for _, subject, node, rows_in, _, values, _, _ in \
                service.execute(query(7).sql).trace.nodes:
            if isinstance(node, Encrypt):
                sealed[node.label()] = sealed.get(node.label(), 0) + values
                if node.label() == "enc[l_shipdate]":
                    assert subject == "A2" and rows_in > 0
        assert sealed["enc[l_shipdate]"] == 0
        assert sealed["enc[l_extendedprice,l_orderkey,l_suppkey]"] > 1000


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
        assert list(cells) == [row[1] for row in tables["R"].rows[4:]]

    def test_q7_decides_once_per_column_not_once_per_row(
            self, tpch_data, monkeypatch):
        """Clock-free guard on TPC-H Q7 under UAPenc: A2 filters
        ``l_shipdate`` with two conjuncts on the plaintext it holds,
        *before* it seals the column (RANDOMIZED) — no
        ``decrypt_column``; P1's ``n_name IN (…)`` over the
        DETERMINISTIC column it received encrypts its constants once."""
        service = uapenc_service(tpch_data(0.001, 107))
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
            self, cold_rounds):
        """One cold execution of each of the 17 SQL templates (UAPenc,
        scale 0.002, seed 107).  Before selections ran ahead of their
        own Encrypt: 122,808 sealed, 32,982 opened, 30,421 of those by
        a selection re-opening what its subject had just sealed.  Then
        96,500 sealed and 2,561 opened while π dropped duplicate rows;
        bag π seals 9,621 more (Q4 +4,847, Q13 +2,700, Q16 +1,200, Q21
        +874), and an Encrypt below its fragment's π no longer seals
        the columns π drops, 5,178 fewer (Q7 3,624, Q17 963, Q5 476,
        Q4 115).  Q5's plan keeps ``c_nationkey = s_nationkey`` and
        opens 42 values instead of 948.  Since the service plans Q5
        owner-first (``lineitem ⋈ orders`` at A2, then ``customer``),
        Q5 seals 6,428 values, not 37,677: 69,694 in all, was 100,943.

        Of the cells sealed, the DETERMINISTIC ones reach the cipher once
        per distinct value of their column: 15,822 from ``Encrypt``
        columns plus 5 constants (one ``encrypt`` each); Q5's were
        4,128 in FROM order, 652 owner-first.  Cell by cell it was
        68,016 (constants apart) before the join order was chosen."""
        _, (counts, _) = cold_rounds
        assert {name: counts[name]
                for name in ("encrypt_column", "decrypt_column")} == \
            {"encrypt_column": 69_694, "decrypt_column": 1_655}
        assert counts["det cipher"] == 15_827
        assert "opened by σ" in counts and counts["opened by σ"] == 0
