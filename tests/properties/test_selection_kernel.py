"""Hypothesis: the selection column kernel ≡ the seed's row closure.

``compile_predicate`` decides how to compare once per representation
group of a column; ``oracles.row_predicate`` decides it per row, through
an exception.  Over generated tables — plaintext, deterministic, OPE,
randomized and Paillier columns (two columns may share a key), encrypted
aggregates, NULLs anywhere, a column that mixes representations, every
operator, one to three conjuncts that may repeat a column, keys held or
not by the evaluating subject and by the constant encryptor, a
pre-encrypted constant — both must keep the same rows in the same
order, and one must raise exactly when the other does.
"""

from hypothesis import given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
)
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyStore
from repro.engine.codec import decrypt_column, encrypt_value
from repro.engine.expressions import ConstantEncryptor, compile_predicate
from repro.engine.values import EncryptedAggregate
from repro.exceptions import ExecutionError, KeyManagementError, ReproError

from oracles.row_predicate import compile_row_predicate

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
    return encrypt_value(MASTER.material(representation), value)


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
        choices = [None] + [n for n, k in zip(NAMES, POOL)
                            if not (words and k.scheme in NUMBERS_ONLY)] \
            + ([] if words else [AGGREGATE])
        key = draw(st.sampled_from(choices))
        stray = draw(st.sampled_from(choices)) \
            if draw(st.integers(0, 4)) == 0 else key
        layout.append((WORDS if words else INTS, key, stray))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = []
        for domain, key, stray in layout:
            value = draw(st.one_of(st.none(), domain, domain, domain))
            if draw(st.integers(0, 3)) == 0:
                key = stray
            row.append(_cell(value, key))
        rows.append(tuple(row))

    def constant(op, domain):
        if draw(st.integers(0, 7)) == 0:
            domain = st.one_of(INTS, WORDS)
        if op is ComparisonOp.IN:
            return tuple(draw(st.lists(domain, max_size=3)))
        if op is ComparisonOp.LIKE:
            return draw(PATTERNS)
        plain = draw(domain)
        if draw(st.integers(0, 5)) == 0:
            key = draw(st.sampled_from(NAMES[:3]))
            if key != "kope1" or isinstance(plain, int):
                return encrypt_value(MASTER.material(key), plain)
        return plain

    conjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(list(ComparisonOp)))
        left = draw(st.integers(0, len(COLUMNS) - 1))
        if op in (ComparisonOp.IN, ComparisonOp.LIKE) or draw(st.booleans()):
            conjuncts.append(AttributeValuePredicate(
                COLUMNS[left], op, constant(op, layout[left][0])))
        else:
            right = draw(st.sampled_from([c for c in COLUMNS
                                          if c != COLUMNS[left]]))
            conjuncts.append(
                AttributeComparisonPredicate(COLUMNS[left], op, right))
    return (rows, Conjunction(conjuncts),
            _held(draw(STORES)), _held(draw(STORES)))


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


@given(cases())
@settings(max_examples=400, deadline=None)
def test_kernel_keeps_what_the_row_closure_keeps(case):
    rows, predicate, keystore, constant_store = case

    def kernel():
        select = compile_predicate(
            predicate, COLUMNS, ConstantEncryptor(constant_store or keystore),
            local_keystore=keystore)
        return select(rows, decrypt_column)

    def oracle():
        keep = compile_row_predicate(
            predicate, COLUMNS, ConstantEncryptor(constant_store or keystore),
            local_keystore=keystore)
        return [row for row in rows if keep(row)]

    assert outcome(kernel) == outcome(oracle)
