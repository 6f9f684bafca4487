"""Hypothesis: the selection column kernel ≡ the seed's row closure.

``compile_predicate`` decides how to compare once per column, from the
representation its table states; ``oracles.row_predicate`` decides it
per row, through an exception.  Over generated tables — plaintext,
deterministic, OPE, randomized and Paillier columns (two columns may
share a key), encrypted aggregates, NULLs anywhere, every operator, one
to three conjuncts that may repeat a column, keys held or not by the
evaluating subject and by the constant encryptor, a pre-encrypted
constant — both must keep the same rows in the same order, and one must
raise exactly when the other does.  A drawn column that mixes
representations never reaches the kernel: the table refuses it.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
)
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyStore
from repro.engine.codec import decrypt_column, encrypt_column
from repro.engine.expressions import ConstantEncryptor, compile_predicate
from repro.engine.table import Table
from repro.engine.values import EncryptedAggregate, EncryptedValue
from repro.exceptions import ExecutionError, KeyManagementError, ReproError

from oracles.row_predicate import compile_row_predicate
from helpers import draws

COLUMNS = ("a", "b", "c")
#: One key per pool entry; columns drawing the same entry share a key,
#: which is what makes their tokens comparable to each other.
POOL = (
    QueryKey(frozenset({"det1"}), EncryptionScheme.DETERMINISTIC),
    QueryKey(frozenset({"det2"}), EncryptionScheme.DETERMINISTIC),
    QueryKey(frozenset({"ope1"}), EncryptionScheme.OPE),
    QueryKey(frozenset({"rnd1"}), EncryptionScheme.RANDOMIZED),
    QueryKey(frozenset({"pai1"}), EncryptionScheme.PAILLIER),
)
MASTER = KeyStore.generate(POOL)
NAMES = [key.name for key in POOL]
NUMBERS_ONLY = (EncryptionScheme.OPE, EncryptionScheme.PAILLIER)
#: A representation besides the pool's: the cell is a Paillier aggregate.
AGGREGATE = "aggregate"

INTS = st.integers(0, 4)
WORDS = st.sampled_from(["ab", "abc", "b", "ba"])
PATTERNS = st.sampled_from(["a%", "%b", "_b%", "ab", "%"])

# What ``cases`` draws from, built once: a strategy built inside it is
# built again for every cell and conjunct, which costs more than the
# draw.  Keyed by the choice that picks it, so the draws are unchanged.
#: Per column (keyed by "the column holds words"): None = plaintext, a
#: pool key, or AGGREGATE; OPE and Paillier take numbers only.
REPRESENTATIONS = {
    words: st.sampled_from(
        [None] + [n for n, k in zip(NAMES, POOL)
                  if not (words and k.scheme in NUMBERS_ONLY)]
        + ([] if words else [AGGREGATE]))
    for words in (False, True)}
#: A cell: NULL one time in four.
CELLS = {domain: st.one_of(st.none(), domain, domain, domain)
         for domain in (INTS, WORDS)}
#: A constant of the other domain, one time in eight.
ANY_CONSTANT = st.one_of(INTS, WORDS)
CONSTANT_LISTS = {domain: st.lists(domain, max_size=3)
                  for domain in (INTS, WORDS, ANY_CONSTANT)}
OPERATORS = st.sampled_from(list(ComparisonOp))
#: The keys a pre-encrypted constant is sealed under.
SEALED_CONSTANTS = st.sampled_from(NAMES[:3])
#: The other columns a column may be compared with.
OTHER_COLUMNS = {column: st.sampled_from([c for c in COLUMNS if c != column])
                 for column in COLUMNS}


def _held(names):
    return MASTER.subset(names) if names is not None else None


def _cell(value, representation):
    if value is None or representation is None:
        return value
    if representation is AGGREGATE:
        paillier = MASTER.material(NAMES[-1])
        return EncryptedAggregate(paillier.name,
                                  paillier.paillier_public.encrypt(value),
                                  count=1, is_average=False)
    return encrypt_column(MASTER.material(representation), [value])[0]


#: Which keys a store holds: usually all, else a subset, rarely no store.
STORES = st.one_of(st.just(frozenset(NAMES)), st.just(frozenset(NAMES)),
                   st.sets(st.sampled_from(NAMES)), st.none())


@st.composite
def cases(draw):
    # Per column: a domain (usually the table's; OPE and Paillier take
    # numbers only), a representation (None = plaintext, a pool key, or
    # AGGREGATE) and, for one column in five, another one that a few
    # cells are left in.
    table_words = draw(st.booleans())
    layout = []
    for _ in COLUMNS:
        words = table_words ^ (draw(st.integers(0, 5)) == 0)
        key = draw(REPRESENTATIONS[words])
        stray = draw(REPRESENTATIONS[words]) \
            if draw(st.integers(0, 4)) == 0 else key
        layout.append((WORDS if words else INTS, key, stray))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = []
        for domain, key, stray in layout:
            value = draw(CELLS[domain])
            if draw(st.integers(0, 3)) == 0:
                key = stray
            row.append(_cell(value, key))
        rows.append(tuple(row))

    def constant(op, domain):
        if draw(st.integers(0, 7)) == 0:
            domain = ANY_CONSTANT
        if op is ComparisonOp.IN:
            return tuple(draw(CONSTANT_LISTS[domain]))
        if op is ComparisonOp.LIKE:
            return draw(PATTERNS)
        plain = draw(domain)
        if draw(st.integers(0, 5)) == 0:
            key = draw(SEALED_CONSTANTS)
            if key != "kope1" or isinstance(plain, int):
                return encrypt_column(MASTER.material(key), [plain])[0]
        return plain

    conjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(OPERATORS)
        left = draw(st.integers(0, len(COLUMNS) - 1))
        if op in (ComparisonOp.IN, ComparisonOp.LIKE) or draw(st.booleans()):
            conjuncts.append(AttributeValuePredicate(
                COLUMNS[left], op, constant(op, layout[left][0])))
        else:
            right = draw(OTHER_COLUMNS[COLUMNS[left]])
            conjuncts.append(
                AttributeComparisonPredicate(COLUMNS[left], op, right))
    return (rows, Conjunction(conjuncts),
            _held(draw(STORES)), _held(draw(STORES)))


def kind(cell):
    """A cell's representation, judged on its own."""
    if isinstance(cell, EncryptedValue):
        return cell.key_name, cell.scheme
    if isinstance(cell, EncryptedAggregate):
        return cell.key_name, AGGREGATE
    return None if cell is None else "plaintext"


def mixed(rows):
    """Whether a column of ``rows`` holds two non-NULL representations."""
    return any(len({kind(cell) for cell in column} - {None}) > 1
               for column in zip(*rows))


def outcome(run):
    try:
        return run()
    except (ExecutionError, KeyManagementError):
        # The row closure looked an aggregate's key up unchecked, so a
        # missing one surfaced as KeyManagementError; the kernel reports
        # every key it does not hold the same way.
        return "ExecutionError"
    except ReproError as error:  # e.g. a constant the OPE domain rejects
        return type(error).__name__


#: Pinned beside the drawn cases: an order comparison and a LIKE over a
#: DETERMINISTIC column whose constant is sealed for it, the two
#: refusals of ``compare_encrypted`` the row closure reaches.
SEALED_WORDS = [(_cell("ab", "kdet1"), None, None),
                (_cell("b", "kdet1"), None, None)]


@given(cases())
@example((SEALED_WORDS, Conjunction([AttributeValuePredicate(
    "a", ComparisonOp.GE, "ab")]), None, MASTER))
@example((SEALED_WORDS, Conjunction([AttributeValuePredicate(
    "a", ComparisonOp.LIKE, "a%")]), None, MASTER))
@settings(max_examples=draws(400, 100), deadline=None)
def test_kernel_keeps_what_the_row_closure_keeps(case):
    rows, predicate, keystore, constant_store = case
    if mixed(rows):
        with pytest.raises(ExecutionError, match="more than one value"):
            Table("R", COLUMNS, rows)
        return
    table = Table("R", COLUMNS, rows)

    def kernel():
        select = compile_predicate(
            predicate, COLUMNS, ConstantEncryptor(constant_store or keystore),
            local_keystore=keystore)
        return [rows[index] for index in select(table, decrypt_column)]

    def oracle():
        keep = compile_row_predicate(
            predicate, COLUMNS, ConstantEncryptor(constant_store or keystore),
            local_keystore=keystore)
        return [row for row in rows if keep(row)]

    assert outcome(kernel) == outcome(oracle)
