"""Hypothesis: ``σ_p(enc_A(X))`` run as ``enc_A(σ_p(X))`` ≡ plan order.

``Executor.execute`` runs a selection before the Encrypt directly below
it when every predicate column of the Encrypt's operand holds plaintext
(``engine/executor.py``); ``oracles.plan_order`` runs the two nodes as
the extended plan wrote them, through ``Executor.execute_node``.  Over
generated sources — NULLs anywhere; columns the Encrypt seals itself
under RANDOMIZED / DETERMINISTIC / OPE / PAILLIER (two may share a key),
columns that arrived encrypted and columns left in the clear; one to
three conjuncts over any of them, every operator; keys held or not —
both return the same rows in the same order with every column in the
same representation, or both refuse.  The engine filters first exactly
when no predicate column of the source holds a ciphertext, and what it
returns is then the plaintext executor's answer.

Columns are typed (one domain per table, constants drawn from it):
DETERMINISTIC token equality between an int cell and a float constant
already disagrees with plaintext equality (``encode_value`` tags the two
apart), so plan order itself is wrong there — see the last test.
"""

from hypothesis import given, settings, strategies as st

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
from repro.crypto import primitives
from repro.crypto.keymanager import KeyMaterial, KeyStore
from repro.engine import EncryptedValue, Executor, Table
from repro.engine.codec import decrypt_value, encrypt_value
from repro.engine.values import signature

from oracles.plan_order import execute_in_plan_order
from test_selection_kernel import INTS, MASTER, PATTERNS, WORDS, outcome

COLUMNS = ("a", "b", "c")
R = Relation("R", list(COLUMNS), cardinality=8)
#: Columns drawing the same entry share a key, so their tokens compare.
POOL = {
    "det1": EncryptionScheme.DETERMINISTIC,
    "det2": EncryptionScheme.DETERMINISTIC,
    "ope1": EncryptionScheme.OPE,
    "rnd1": EncryptionScheme.RANDOMIZED,
    "pai1": EncryptionScheme.PAILLIER,
}
NUMBERS_ONLY = (EncryptionScheme.OPE, EncryptionScheme.PAILLIER)
SYMMETRIC = {entry: primitives.generate_key(32) for entry in POOL}
PAILLIER = (MASTER.material("kpai1").paillier_public,
            MASTER.material("kpai1").paillier_private)
#: What a column is to the Encrypt under test.
OWN, ARRIVED, PLAIN = "sealed by this Encrypt", "arrived encrypted", "plain"


def keystore(layout):
    """One key per pool entry in use, covering the columns that drew it."""
    covered = {}
    for column, (role, entry) in zip(COLUMNS, layout):
        if role is not PLAIN:
            covered.setdefault(entry, set()).add(column)
    materials = []
    for entry, columns in covered.items():
        key = QueryKey(frozenset(columns), POOL[entry])
        if key.scheme is EncryptionScheme.PAILLIER:
            materials.append(KeyMaterial(key, None, *PAILLIER))
        else:
            materials.append(KeyMaterial(key, SYMMETRIC[entry]))
    return KeyStore(materials)


@st.composite
def cases(draw):
    words = draw(st.booleans())
    domain = WORDS if words else INTS
    entries = [entry for entry, scheme in POOL.items()
               if not (words and scheme in NUMBERS_ONLY)]
    layout = [(draw(st.sampled_from([OWN, OWN, ARRIVED, PLAIN])),
               draw(st.sampled_from(entries))) for _ in COLUMNS]
    if all(role is not OWN for role, _ in layout):
        layout[0] = (OWN, layout[0][1])
    master = keystore(layout)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = []
        for column, (role, _) in zip(COLUMNS, layout):
            value = draw(st.one_of(st.none(), domain, domain, domain))
            if role is ARRIVED and value is not None:
                value = encrypt_value(
                    master.material_for_attribute(column), value)
            row.append(value)
        rows.append(tuple(row))

    conjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(list(ComparisonOp)))
        left = draw(st.sampled_from(COLUMNS))
        if op is ComparisonOp.IN:
            conjuncts.append(AttributeValuePredicate(
                left, op, tuple(draw(st.lists(domain, max_size=3)))))
        elif op is ComparisonOp.LIKE:
            conjuncts.append(AttributeValuePredicate(
                left, op, draw(PATTERNS)))
        elif draw(st.booleans()):
            conjuncts.append(AttributeValuePredicate(left, op, draw(domain)))
        else:
            right = draw(st.sampled_from([c for c in COLUMNS if c != left]))
            conjuncts.append(AttributeComparisonPredicate(left, op, right))
    names = sorted(master.names())
    held = draw(st.one_of(st.none(), st.none(), st.none(),
                          st.sets(st.sampled_from(names))))
    return (layout, rows, Conjunction(conjuncts), master,
            master if held is None else master.subset(held),
            master if draw(st.booleans()) else None)


class Logged(Executor):
    """An executor that records the order its operators ran in."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ran = []

    def execute_node(self, node, children):
        self.ran.append(type(node))
        return super().execute_node(node, children)


def opened(table, master):
    """``table``'s rows decrypted, and each cell's representation."""
    return (
        [tuple(decrypt_value(master.material(cell.key_name), cell)
               if isinstance(cell, EncryptedValue) else cell for cell in row)
         for row in table.rows],
        [tuple(map(signature, row)) for row in table.rows])


@given(cases())
@settings(max_examples=100, deadline=None)
def test_engine_agrees_with_plan_order_and_filters_first_on_plaintext(case):
    layout, rows, predicate, master, held, constants = case
    leaf = BaseRelationNode(R)
    own = [c for c, (role, _) in zip(COLUMNS, layout) if role is OWN]
    plan = Selection(Encrypt(leaf, own), predicate)
    catalog = {"R": Table("R", COLUMNS, rows)}

    def executor():
        return Logged(catalog, keystore=held, constant_keystore=constants)

    engine = executor()
    got = outcome(lambda: opened(engine.execute(plan), master))
    assert got == outcome(lambda: opened(
        execute_in_plan_order(executor(), plan), master))

    plaintext_predicate = not any(
        isinstance(row[COLUMNS.index(attribute)], EncryptedValue)
        for attribute in predicate.attributes() for row in rows)
    order = [BaseRelationNode, Selection, Encrypt] if plaintext_predicate \
        else [BaseRelationNode, Encrypt, Selection]
    assert engine.ran == order[:len(engine.ran)]
    if plaintext_predicate and not isinstance(got, str):  # not refused
        kept = Executor(catalog).execute(Selection(leaf, predicate))
        assert got[0] == opened(kept, master)[0]


def test_int_cell_against_float_constant_follows_the_plaintext_executor():
    """The corner the generator stays out of: ``a = 2.0`` over an int
    column sealed DETERMINISTIC.  Plan order compares tokens, and
    ``encode_value`` tags 2 and 2.0 apart, so it keeps nothing; the
    engine decides on the plaintext it holds and keeps what the
    plaintext executor keeps."""
    master = keystore([(OWN, "det1"), (PLAIN, "det1"), (PLAIN, "det1")])
    leaf = BaseRelationNode(R)
    predicate = AttributeValuePredicate("a", ComparisonOp.EQ, 2.0)
    plan = Selection(Encrypt(leaf, ["a"]), predicate)
    catalog = {"R": Table("R", COLUMNS, [(n, n, n) for n in range(4)])}
    kept = Executor(catalog).execute(Selection(leaf, predicate)).rows
    assert kept == [(2, 2, 2)]
    engine = Executor(catalog, keystore=master)
    assert opened(engine.execute(plan), master)[0] == kept
    assert execute_in_plan_order(engine, plan).rows == []
