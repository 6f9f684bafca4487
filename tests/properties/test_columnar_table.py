"""Hypothesis: the columnar Table and Executor ≡ the row-tuple reference.

Over drawn tables — small domains, so rows repeat, NULLs anywhere, each
column plaintext or sealed DETERMINISTIC, RANDOMIZED, OPE or Paillier —
the ``rows`` view of every operator's result equals
``oracles.row_table`` on the same rows: π (a bag, also onto no column
of its input), a leaf's projection,
σ, ×, ⋈ with a residual conjunct (as a bag: the hash join emits its
pairs in probe order), γ, and Encrypt followed by Decrypt.
Where one raises, so must the other.  The plaintext kernels are drawn
on what each of their branches decides on: NULL-free and NULL-bearing
columns, ``True`` beside ``1`` and ``1.0``, an unhashable cell under
``IN`` and a non-string under ``LIKE``, unique, duplicate and NULL
build keys (one or two key columns), and one-row groups.  And Encrypt refuses a column its
``encrypt_column`` hands back sealed under another key or scheme,
holding what are not its scheme's tokens, or mixing sealed and
plaintext cells.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.keys import QueryKey
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
from repro.engine import executor as executor_module
from repro.engine.codec import encrypt_column
from repro.engine.executor import Executor
from repro.engine.expressions import ConstantEncryptor
from repro.engine.table import Table
from repro.engine.values import SealedColumn
from repro.exceptions import ExecutionError, ReproError

from oracles import row_table
from helpers import draws

R = Relation("R", ["a", "b", "c"])
S = Relation("S", ["k", "w"])
SCHEMES = list(EncryptionScheme)
#: One key per scheme, each covering every column (the scheme's value
#: keeps the names apart).
MATERIALS = {
    scheme: KeyStore.generate([QueryKey(
        frozenset({"a", "b", "c", "k", "w", scheme.value}), scheme)])
    .material_for_attribute("a")
    for scheme in SCHEMES}
ALL = KeyStore(MATERIALS.values())
VALUES = st.one_of(st.none(), st.integers(0, 3))
#: A column's scheme, None for plaintext; and a few rows of R or S.
#: Built once: a strategy built inside ``tables`` is built again at
#: every draw (``test_selection_kernel`` says why that matters).
LAYOUTS = st.sampled_from([None] + SCHEMES)
ROWS = {width: st.lists(st.tuples(*[VALUES] * width), max_size=5)
        for width in (len(R.attribute_names), len(S.attribute_names))}
#: Join keys hash on tokens only under these (or in plaintext).
HASHABLE = [None, EncryptionScheme.DETERMINISTIC, EncryptionScheme.OPE]


@st.composite
def tables(draw, relation, layout=None):
    """(rows, table): a few rows, some repeated, each column sealed as
    ``layout`` says (drawn when not given)."""
    columns = tuple(relation.attribute_names)
    plain = draw(ROWS[len(columns)])
    if plain:
        plain += draw(st.lists(st.sampled_from(plain), max_size=3))
    if layout is None:
        layout = [draw(LAYOUTS) for _ in columns]
    return table_of(relation, plain, layout)


def table_of(relation, plain, layout):
    """(rows, table): the ``plain`` rows, each column sealed as
    ``layout`` says."""
    cells = []
    for index, scheme in enumerate(layout):
        column = [row[index] for row in plain]
        cells.append(column if scheme is None
                     else list(encrypt_column(MATERIALS[scheme], column)))
    rows = list(zip(*cells)) if plain else []
    return rows, Table(relation.name, tuple(relation.attribute_names), rows)


#: Pinned beside the drawn cases (a property's tier-1 slice may not
#: draw them): R's rows in plaintext but for a DETERMINISTIC ``c``.
SEALED_C = table_of(R, [(1, 2, 3), (1, 0, 3)],
                    [None, None, EncryptionScheme.DETERMINISTIC])


def outcome(run):
    try:
        return run()
    except ReproError as error:
        return type(error).__name__


def agree(node, catalog, reference, keystore=ALL, bag=False):
    """The executor's rows are the reference's: in order, or as a bag
    (``bag=True``: for ⋈, whose hash join emits pairs in probe order)."""
    got = outcome(lambda: Executor(catalog, keystore=keystore)
                  .execute(node).rows)
    expected = outcome(reference)
    if bag and isinstance(got, list) and isinstance(expected, list):
        assert same_bag(got, expected), (got, expected)
    else:
        assert got == expected


def same_bag(got, expected):
    """Whether two row lists hold the same rows equally often, in any
    order (compared by ``==``: a sealed cell need not hash)."""
    left = list(expected)
    for row in got:
        if row not in left:
            return False
        left.remove(row)
    return not left


@given(tables(R), st.sets(st.sampled_from(["a", "b", "c", "k"]),
                          min_size=1), st.booleans())
@example(SEALED_C, {"k"}, False)  # onto no column of R: empty rows
@settings(max_examples=draws(60, 20), deadline=None)
def test_projection_keeps_every_row(case, attributes, at_leaf):
    rows, table = case
    kept = [c for c in R.attribute_names if c in attributes]
    if at_leaf:
        if not kept:
            return
        node = BaseRelationNode(R, kept)
    else:
        node = Projection(BaseRelationNode(R), attributes)
    agree(node, {"R": table},
          lambda: row_table.project(table.columns, rows, kept))


@given(tables(R), st.sampled_from(["a", "b", "c"]),
       st.sampled_from([ComparisonOp.EQ, ComparisonOp.NEQ, ComparisonOp.LT,
                        ComparisonOp.GE, ComparisonOp.IN]),
       st.integers(0, 3))
@settings(max_examples=draws(60, 20), deadline=None)
def test_selection_keeps_what_the_row_closure_keeps(case, attribute, op,
                                                     value):
    rows, table = case
    constant = (value, 3 - value) if op is ComparisonOp.IN else value
    predicate = AttributeValuePredicate(attribute, op, constant)
    agree(Selection(BaseRelationNode(R), predicate), {"R": table},
          lambda: row_table.select(table.columns, rows, predicate,
                                   ConstantEncryptor(ALL), ALL))


@given(st.sampled_from(HASHABLE), st.data())
@settings(max_examples=60, deadline=None)
def test_product_and_join_pair_as_the_nested_loop_does(key_scheme, data):
    left, r = data.draw(tables(R, [key_scheme] + [
        data.draw(st.sampled_from([None] + SCHEMES)) for _ in "bc"]))
    right, s = data.draw(tables(S, [
        key_scheme, data.draw(st.sampled_from([None] + SCHEMES))]))
    catalog = {"R": r, "S": s}
    leaves = BaseRelationNode(R), BaseRelationNode(S)
    agree(CartesianProduct(*leaves), catalog,
          lambda: row_table.product(left, right))
    conjuncts = [AttributeComparisonPredicate("a", ComparisonOp.EQ, "k")]
    if data.draw(st.booleans()):
        conjuncts.append(AttributeComparisonPredicate(
            "b", data.draw(st.sampled_from([ComparisonOp.LT,
                                            ComparisonOp.NEQ])), "w"))
    condition = Conjunction(conjuncts)
    agree(Join(*leaves, condition), catalog,
          lambda: row_table.join(condition, r.columns + s.columns,
                                 left, right), bag=True)


def test_a_key_twice_on_each_side_pairs_as_the_nested_loop_does():
    """The property above pinned where its draws may miss: a join key
    repeated on both sides, so whichever side the hash join builds on
    holds a duplicate key and the one-lookup probe (for unique build
    keys) may not be taken."""
    r = Table("R", ("a", "b", "c"), [(1, 1, 1), (1, 2, 2), (2, 3, 3)])
    s = Table("S", ("k", "w"), [(1, 3), (2, 4), (1, 5)])
    condition = Conjunction([
        AttributeComparisonPredicate("a", ComparisonOp.EQ, "k")])
    agree(Join(BaseRelationNode(R), BaseRelationNode(S), condition),
          {"R": r, "S": s},
          lambda: row_table.join(condition, r.columns + s.columns,
                                 r.rows, s.rows), bag=True)


def test_join_rows_come_in_probe_order_and_match_as_a_bag():
    """⋈ is a bag, as in SQL (and the sqlite oracle): the hash join pairs
    rows in the order it probes them, the nested loop in the order of
    its outer loop, so the two agree as bags, not as lists."""
    r = Table("R", ("a", "b", "c"), [(False, 1, 1), (True, 2, 2)])
    s = Table("S", ("k", "w"), [(True, 3), (False, 4)])
    condition = Conjunction([
        AttributeComparisonPredicate("a", ComparisonOp.EQ, "k")])
    got = Executor({"R": r, "S": s}).execute(
        Join(BaseRelationNode(R), BaseRelationNode(S), condition)).rows
    expected = row_table.join(condition, r.columns + s.columns,
                              r.rows, s.rows)
    assert got != expected
    assert same_bag(got, expected)
    assert not same_bag(got, expected[:1]) and not same_bag(got[:1], got)


@given(tables(R), st.sets(st.sampled_from(["a", "b"])),
       st.sampled_from(list(AggregateFunction)))
@example(SEALED_C, {"a"}, AggregateFunction.MIN)  # refused: not OPE
@example(SEALED_C, {"a"}, AggregateFunction.SUM)  # refused: not Paillier
@settings(max_examples=draws(60, 20), deadline=None)
def test_group_by_groups_as_the_reference_does(case, group, function):
    rows, table = case
    node = GroupBy(BaseRelationNode(R), group, [
        Aggregate(AggregateFunction.COUNT, alias="n"),
        Aggregate(function, "c")])
    agree(node, {"R": table},
          lambda: row_table.group_by(node, table.columns, rows))


@given(tables(R, [None, None, None]), st.sampled_from(["a", "b", "c"]),
       st.sampled_from(SCHEMES))
@settings(max_examples=draws(40, 15), deadline=None)
def test_encrypt_then_decrypt_gives_the_column_back(case, attribute, scheme):
    rows, table = case
    node = Decrypt(Encrypt(BaseRelationNode(R), {attribute}), {attribute})
    agree(node, {"R": table}, lambda: rows,
          keystore=KeyStore([MATERIALS[scheme]]))


FAULTS = ("foreign key", "other scheme", "not its tokens", "mixed cells")


@given(st.sampled_from(SCHEMES), st.sampled_from(FAULTS),
       st.lists(VALUES, max_size=4), st.data())
@settings(max_examples=40, deadline=None)
def test_encrypt_refuses_what_a_faulty_codec_returns(scheme, fault, values,
                                                      data):
    """The column Encrypt states is read from what ``encrypt_column``
    returned, never taken from the material."""
    material = MATERIALS[scheme]
    values = [1, 2] + values
    real = executor_module.encrypt_column

    def faulty(material, column, pool=None):
        sealed = real(material, column)
        if fault == "foreign key":
            return SealedColumn("kforeign", scheme, sealed.tokens)
        if fault == "other scheme":
            other = data.draw(st.sampled_from(
                [s for s in SCHEMES if s is not scheme]))
            return SealedColumn(material.name, other, sealed.tokens)
        if fault == "not its tokens":
            return SealedColumn(material.name, scheme, list(column))
        return sealed[:1] + list(column[1:])

    table = Table("R", R.attribute_names,
                  [(value, None, None) for value in values])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "encrypt_column", faulty)
        with pytest.raises(ExecutionError):
            Executor({"R": table}, keystore=KeyStore([material])).execute(
                Encrypt(BaseRelationNode(R), {"a"}))


#: Plaintext cells the kernels' branches tell apart: ``True``, ``1`` and
#: ``1.0`` (equal and hashed alike), another float, an unhashable list.
NUMBERS = [True, False, 0, 1, 1.0, 2, 2.5]
WORDS = ["", "a", "ab", "ba", "b_"]


@st.composite
def plain_tables(draw, relation, domain, unique=None):
    """(rows, table) of plaintext ``domain`` cells, NULL-free or not; the
    first column holds distinct values when ``unique``, and some rows
    repeat when not (drawn when not given)."""
    cells = st.sampled_from(domain)
    if draw(st.booleans()):
        cells = st.one_of(st.none(), cells)
    width = len(relation.attribute_names)
    rows = draw(st.lists(st.tuples(*[cells] * width), max_size=5))
    if unique if unique is not None else draw(st.booleans()):
        rows = list({row[0]: row for row in rows}.values())
    elif rows:
        rows += draw(st.lists(st.sampled_from(rows), min_size=1,
                              max_size=3))
    return rows, Table(relation.name, relation.attribute_names, rows)


@given(plain_tables(R, NUMBERS + [[1]], unique=False),
       st.sampled_from(["a", "b"]), st.sampled_from(NUMBERS),
       st.sampled_from(NUMBERS + WORDS))
@settings(max_examples=draws(50, 20), deadline=None)
def test_plaintext_kernels_keep_what_the_row_closure_keeps(
        case, attribute, value, other):
    rows, table = case
    for op in ComparisonOp:
        constant = {ComparisonOp.IN: (value, other),
                    ComparisonOp.LIKE: other}.get(op, value)
        predicate = AttributeValuePredicate(attribute, op, constant)
        agree(Selection(BaseRelationNode(R), predicate), {"R": table},
              lambda: row_table.select(table.columns, rows, predicate,
                                       ConstantEncryptor(ALL), ALL))


@given(plain_tables(R, WORDS), st.sampled_from(["a%", "%a", "_", "%"]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_like_maps_its_regex_as_the_row_closure_matches(case, pattern,
                                                       stray):
    rows, table = case
    if stray and rows:  # a number among the words: LIKE raises
        rows = rows[:-1] + [(3,) + rows[-1][1:]]
        table = Table("R", R.attribute_names, rows)
    predicate = AttributeValuePredicate("a", ComparisonOp.LIKE, pattern)
    agree(Selection(BaseRelationNode(R), predicate), {"R": table},
          lambda: row_table.select(table.columns, rows, predicate,
                                   ConstantEncryptor(ALL), ALL))


@given(plain_tables(R, NUMBERS))
@settings(max_examples=30, deadline=None)
def test_column_pairs_compare_as_the_row_closure_does(case):
    rows, table = case
    for op in (ComparisonOp.EQ, ComparisonOp.NEQ, ComparisonOp.LT,
               ComparisonOp.GE):
        predicate = AttributeComparisonPredicate("a", op, "b")
        agree(Selection(BaseRelationNode(R), predicate), {"R": table},
              lambda: row_table.select(table.columns, rows, predicate,
                                       ConstantEncryptor(ALL), ALL))


@given(plain_tables(R, NUMBERS), plain_tables(S, NUMBERS), st.booleans(),
       st.sampled_from([None, ComparisonOp.NEQ, ComparisonOp.LT]))
@settings(max_examples=draws(80, 30), deadline=None)
def test_unique_and_duplicate_build_keys_pair_as_the_nested_loop_does(
        left_case, right_case, composite, residual):
    (left, r), (right, s) = left_case, right_case
    conjuncts = [AttributeComparisonPredicate("a", ComparisonOp.EQ, "k")]
    if composite:
        conjuncts.append(
            AttributeComparisonPredicate("b", ComparisonOp.EQ, "w"))
    if residual is not None:
        conjuncts.append(AttributeComparisonPredicate("c", residual, "w"))
    condition = Conjunction(conjuncts)
    # A bag: the hash join emits pairs in its probe side's order.
    got = Executor({"R": r, "S": s}).execute(
        Join(BaseRelationNode(R), BaseRelationNode(S), condition)).rows
    assert sorted(got, key=repr) == sorted(row_table.join(
        condition, r.columns + s.columns, left, right), key=repr)


@given(plain_tables(R, NUMBERS), st.sampled_from(list(AggregateFunction)))
@settings(max_examples=draws(60, 20), deadline=None)
def test_one_row_and_null_free_groups_fold_as_the_reference_does(
        case, function):
    rows, table = case
    node = GroupBy(BaseRelationNode(R), ["a"], [
        Aggregate(AggregateFunction.COUNT, alias="n"),
        Aggregate(function, "c", alias="out")])
    agree(node, {"R": table},
          lambda: row_table.group_by(node, table.columns, rows))
