"""Hypothesis: ``σ_p(enc_A(X))`` run as ``enc_A(σ_p(X))``, and
``π_K([σ_p](enc_A(X)))`` as ``enc_{A∩K}(π_K([σ_p](X)))``, ≡ plan order.

``Executor.execute`` runs a selection before the Encrypt directly below
it when no predicate column is visible encrypted in the Encrypt's
operand (``repro.core.plan.physical_step``); ``oracles.plan_order`` runs
the nodes as the extended plan wrote them, through
``Executor.execute_node``.  Over generated sources — NULLs anywhere;
columns the Encrypt seals itself under RANDOMIZED / DETERMINISTIC / OPE /
PAILLIER (two may share a key), columns that arrived encrypted (sealed by
an Encrypt below, another fragment's, whose table the evaluator is
handed) and columns left in the clear; one to three conjuncts over any
of them, every operator; keys held or not — both return the same rows
in the same order with every column in the same representation, or both
refuse.  The engine filters first exactly when no predicate column
arrived encrypted, and what it returns is then the plaintext executor's
answer.  A projection over the chain (π is a bag) runs before the
Encrypt, which then seals only the columns π kept; an Encrypt or a
selection received from another fragment is never part of a step.

Columns are typed (one domain per table, constants drawn from it):
DETERMINISTIC token equality between an int cell and a float constant
already disagrees with plaintext equality (``encode_value`` tags the two
apart), so plan order itself is wrong there — see the last test.
"""

from hypothesis import example, given, settings, strategies as st

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
from repro.crypto import primitives
from repro.crypto.keymanager import KeyMaterial, KeyStore
from repro.engine import EncryptedValue, Executor, Table
from repro.engine.codec import decrypt_column
from repro.engine.values import representation

from oracles.plan_order import execute_in_plan_order
from helpers import draws
from test_selection_kernel import (
    CELLS,
    CONSTANT_LISTS,
    INTS,
    MASTER,
    OPERATORS,
    OTHER_COLUMNS,
    PATTERNS,
    WORDS,
    outcome,
)

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
#: Strategies ``cases`` draws from, built once (``test_selection_kernel``
#: says why): a column's role, and its pool entry given "words or not".
ROLES = st.sampled_from([OWN, OWN, ARRIVED, PLAIN])
ENTRIES = {words: st.sampled_from([entry for entry, scheme in POOL.items()
                                   if not (words and scheme in NUMBERS_ONLY)])
           for words in (False, True)}


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
    layout = [(draw(ROLES), draw(ENTRIES[words])) for _ in COLUMNS]
    if all(role is not OWN for role, _ in layout):
        layout[0] = (OWN, layout[0][1])
    master = keystore(layout)
    rows = [tuple(draw(CELLS[domain]) for _ in COLUMNS)
            for _ in range(draw(st.integers(0, 8)))]

    conjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(OPERATORS)
        left = draw(st.sampled_from(COLUMNS))
        if op is ComparisonOp.IN:
            conjuncts.append(AttributeValuePredicate(
                left, op, tuple(draw(CONSTANT_LISTS[domain]))))
        elif op is ComparisonOp.LIKE:
            conjuncts.append(AttributeValuePredicate(
                left, op, draw(PATTERNS)))
        elif draw(st.booleans()):
            conjuncts.append(AttributeValuePredicate(left, op, draw(domain)))
        else:
            right = draw(OTHER_COLUMNS[left])
            conjuncts.append(AttributeComparisonPredicate(left, op, right))
    names = sorted(master.names())
    held = draw(st.one_of(st.none(), st.none(), st.none(),
                          st.sets(st.sampled_from(names))))
    return (layout, rows, Conjunction(conjuncts), master,
            master if held is None else master.subset(held),
            master if draw(st.booleans()) else None)


def ran(executor):
    """The class of every node ``executor`` evaluated, in order (its
    record holds a row per node that returned)."""
    return [type(row[0]) for row in executor.record]


def source(layout):
    """``R``, under an Encrypt of the columns that arrived encrypted."""
    arrived = [c for c, (role, _) in zip(COLUMNS, layout) if role is ARRIVED]
    leaf = BaseRelationNode(R)
    return Encrypt(leaf, arrived) if arrived else leaf


def arrivals(below, catalog, master):
    """Node → table another fragment sent: ``below``'s, if an Encrypt."""
    if not isinstance(below, Encrypt):
        return {}
    return {below: Executor(catalog, keystore=master).execute(below)}


def evaluate(executor, plan, received, steps):
    """The runtime's recursion (``DistributedRuntime._evaluate``) over
    the fragment of ``plan`` above the tables ``received`` (node →
    another fragment's table).  The classes of each step handed to the
    executor are appended to ``steps``."""
    plan = QueryPlan(plan)
    runs = [node for node in plan.nodes() if not any(
        node is other or plan.is_descendant(node, other)
        for other in received)]

    def run(node):
        if node in received:
            return received[node]
        step = physical_step(plan, node, runs)
        children = [run(child) for child in step[-1].children]
        steps.append(tuple(map(type, step)))
        return executor.execute_step(step, children)

    return run(plan.root)


def opened(table, master):
    """``table``'s rows decrypted, and each cell's representation."""
    return (
        [tuple(decrypt_column(master.material(cell.key_name), [cell])[0]
               if isinstance(cell, EncryptedValue) else cell for cell in row)
         for row in table.rows],
        [tuple(map(representation, zip(row), table.columns))
         for row in table.rows])


@given(cases())
@settings(max_examples=draws(100, 30), deadline=None)
def test_engine_agrees_with_plan_order_and_filters_first_on_plaintext(case):
    layout, rows, predicate, master, held, constants = case
    below = source(layout)
    own = [c for c, (role, _) in zip(COLUMNS, layout) if role is OWN]
    plan = Selection(Encrypt(below, own), predicate)
    catalog = {"R": Table("R", COLUMNS, rows)}
    received = arrivals(below, catalog, master)

    def executor():
        return Executor(catalog, keystore=held, constant_keystore=constants)

    def run():  # single-site unless a column arrived from elsewhere
        if received:
            return evaluate(engine, plan, received, [])
        return engine.execute(plan)

    engine = executor()
    got = outcome(lambda: opened(run(), master))
    assert got == outcome(lambda: opened(
        execute_in_plan_order(executor(), plan, received), master))

    plaintext_predicate = not predicate.attributes() & set(
        getattr(below, "attributes", ()))
    order = [Selection, Encrypt] if plaintext_predicate \
        else [Encrypt, Selection]
    order = order if received else [BaseRelationNode, *order]
    assert ran(engine) == order[:len(ran(engine))]
    if plaintext_predicate and not isinstance(got, str):  # not refused
        kept = Executor(catalog).execute(
            Selection(BaseRelationNode(R), predicate))
        assert got[0] == opened(kept, master)[0]


def written_case(layout, rows, predicate):
    """A draw of :func:`cases` written out: every key held, and
    constants sealed under the same store."""
    master = keystore(layout)
    return layout, rows, predicate, master, master, master


#: ``b`` arrived sealed and is the predicate column; ``a`` and ``c`` are
#: the Encrypt's own.  Filtered, σ may not run before the Encrypt;
#: unfiltered, π keeping ``a`` alone runs first and the Encrypt must
#: still seal the ``a`` π kept.  Each kills its kill-matrix row at any
#: draw count.
SEALED_PREDICATE = written_case(
    [(OWN, "det1"), (ARRIVED, "det2"), (OWN, "rnd1")],
    [(1, 2, 3), (2, 2, 4), (3, 1, None)],
    AttributeValuePredicate("b", ComparisonOp.EQ, 2))


@given(cases(), st.sets(st.sampled_from(COLUMNS), min_size=1),
       st.booleans(), st.sampled_from([None, Encrypt, Selection]))
@settings(max_examples=draws(100, 60), deadline=None)
@example(SEALED_PREDICATE, {"a", "b"}, True, None)
@example(SEALED_PREDICATE, {"a"}, False, None)
def test_projection_chain_agrees_with_plan_order(case, kept, filtered,
                                                 arrived):
    layout, rows, predicate, master, held, constants = case
    sealed = source(layout)
    own = [c for c, (role, _) in zip(COLUMNS, layout) if role is OWN]
    encrypt = Encrypt(sealed, own)
    below = Selection(encrypt, predicate) if filtered else encrypt
    plan = Projection(below, kept)
    boundary = {Encrypt: encrypt, Selection: below, None: None}[arrived]
    catalog = {"R": Table("R", COLUMNS, rows)}
    received = arrivals(sealed, catalog, master)

    def executor():
        return Executor(catalog, keystore=held, constant_keystore=constants)

    def run():
        handed = received if boundary is None else {boundary: (
            execute_in_plan_order(executor(), boundary, received))}
        return opened(evaluate(engine, plan, handed, steps), master)

    engine, steps = executor(), []
    got = outcome(run)
    assert got == outcome(lambda: opened(
        execute_in_plan_order(executor(), plan, received), master))

    if boundary is not None:  # what arrived is an operand, never a step
        assert all(step in [(Selection,), (Projection,)] for step in steps)
        return
    plan_order = [type(node) for node in (encrypt, below, plan)]
    plan_order = list(dict.fromkeys(plan_order))
    first = [] if received else [BaseRelationNode]
    if not filtered or not predicate.attributes() & set(
            getattr(sealed, "attributes", ())):
        step = (*plan_order[1:], Encrypt)  # σ and π run first
        assert steps == [(kind,) for kind in first] + [step]
        order = [*first, *step]
    else:  # a step per node, handed over until one refuses
        order = [*first, *plan_order]
        assert steps == [(kind,) for kind in order][:len(steps)]
    assert ran(engine) == order[:len(ran(engine))]


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
