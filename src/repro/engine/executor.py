"""Plan execution over in-memory tables, plaintext or encrypted.

The :class:`Executor` evaluates a (possibly extended) query plan against a
catalog of base tables.  It understands the model's Encrypt/Decrypt
operators — applying real ciphers from a :class:`KeyStore` — and executes
relational operators over encrypted values whenever the scheme permits
(deterministic equality, OPE ranges and min/max, Paillier sums/averages),
so an extended plan produced by :func:`repro.core.extension.minimally_extend`
runs end to end and produces the same answers as its plaintext original.

The hot path is batched and hash-partitioned: joins evaluate every
equality conjunct through a hash-partitioned build/probe pass (building
on the smaller operand) and apply only the true residual conjuncts per
matched pair, selections run as column kernels over a selection vector
(:func:`~repro.engine.expressions.compile_predicate`), and join and
group-by keys are computed one key column at a time.  An executor
holds no results: every
:meth:`Executor.execute` evaluates the whole plan against the state it
finds (the distributed runtime memoizes whole fragments instead).

With a :class:`~repro.parallel.WorkerPool` attached, the Encrypt/Decrypt
operators (and §5 note 2's selection decrypts) fan column chunks across
worker processes; everything else runs inline.

One physical rule reorders plan nodes, ``σ_p(enc_A(X)) = enc_A(σ_p(X))``
(:func:`physical_step`, :meth:`Executor.execute_step`): a selection
directly over an Encrypt (A) of the same evaluator (B) whose operand
holds every predicate column in plaintext is decided on that operand,
and only the surviving rows are sealed.  The *plan* keeps the Encrypt
below: Fig. 2's encrypt row leaves ``Rip`` alone, so the reordered plan
would carry the attribute implicit-plaintext past Def. 4.1.  ``π∘enc``
stays: a projection dedupes, and equal rows' RANDOMIZED ciphertexts differ.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping

from repro.core.operators import (
    AggregateFunction,
    BaseRelationNode,
    CartesianProduct,
    Decrypt,
    Encrypt,
    GroupBy,
    Join,
    PlanNode,
    Projection,
    Selection,
    Udf,
)
from repro.core.plan import QueryPlan
from repro.core.predicates import AttributeComparisonPredicate
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyStore
from repro.engine.codec import decrypt_column, encrypt_column
from repro.engine.expressions import (
    ConstantEncryptor,
    compile_comparison,
    compile_predicate,
)
from repro.engine.table import Table
from repro.engine.values import (
    PLAINTEXT,
    EncryptedAggregate,
    EncryptedValue,
    signature,
)
from repro.exceptions import ExecutionError
from repro.parallel.pool import WorkerPool

#: A user-defined function: receives {input attribute: value}, returns one
#: value (named after the node's output attribute).
UdfCallable = Callable[[dict[str, object]], object]

#: A compiled residual conjunct: (left-row selector, comparator,
#: right-row selector) where each selector is (from_left, position).
_ResidualCheck = tuple[
    tuple[bool, int], Callable[[object, object], bool], tuple[bool, int]
]


def physical_step(node: PlanNode, received=()) -> tuple[PlanNode, ...]:
    """The plan nodes evaluated together to produce ``node``, bottom-up:
    ``(node,)``, or ``(Encrypt, node)`` for a selection directly over an
    Encrypt of the same evaluator — not one of the tables ``received``
    (by node ``id``) from another fragment."""
    if isinstance(node, Selection) and isinstance(node.left, Encrypt) \
            and id(node.left) not in received:
        return (node.left, node)
    return (node,)


class Executor:
    """Evaluates plans against a catalog of base tables.

    Parameters
    ----------
    catalog:
        Relation name → :class:`Table` holding its stored tuples; the
        executor keeps its own ``dict`` copy of the mapping.
    keystore:
        Key material available to this evaluator (encrypt/decrypt nodes
        and encrypted constants need the covering keys).
    udfs:
        Udf name → callable.
    pool:
        A :class:`~repro.parallel.WorkerPool` for the CPU-bound column
        kernels (Encrypt/Decrypt).  ``None`` (the default) keeps every
        path inline and single-core.
    """

    def __init__(self, catalog: Mapping[str, Table],
                 keystore: KeyStore | None = None,
                 udfs: Mapping[str, UdfCallable] | None = None,
                 constant_keystore: KeyStore | None = None,
                 pool: "WorkerPool | None" = None) -> None:
        self.catalog = dict(catalog)
        self.keystore = keystore
        self.udfs = dict(udfs or {})
        self.pool = pool
        # Constants in dispatched conditions arrive pre-encrypted by the
        # user (Figure 8); simulate that with a dedicated store.
        self._constant_store = constant_keystore

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, plan: QueryPlan | PlanNode) -> Table:
        """Evaluate a plan (or subtree) and return the result table."""
        node = plan.root if isinstance(plan, QueryPlan) else plan
        step = physical_step(node)
        return self.execute_step(
            step, [self.execute(child) for child in step[0].children])

    def execute_step(self, step: tuple[PlanNode, ...],
                     children: list[Table]) -> Table:
        """Evaluate a :func:`physical_step` over its lowest node's
        operands.  The selection of a pair runs first — same rows, order
        and representations as plan order — unless a predicate column
        already holds ciphertext: comparing it needs the Encrypt's
        tokens, or note 2 on a column this evaluator did not seal."""
        if len(step) == 2:
            (source,), attributes = children, step[1].predicate.attributes()
            if not any({EncryptedValue, EncryptedAggregate}
                       & set(map(type, source.column_values(a)))
                       for a in attributes if a in source.columns):
                step = step[::-1]
        for node in step:
            children = [self.execute_node(node, children)]
        return children[0]

    def execute_node(self, node: PlanNode, children: list[Table]) -> Table:
        """Evaluate one operator over already materialized operands."""
        if isinstance(node, BaseRelationNode):
            return self._scan(node)
        if isinstance(node, Projection):
            return self._project(node, children[0])
        if isinstance(node, Selection):
            return self._select(node, children[0])
        if isinstance(node, CartesianProduct):
            return self._product(children[0], children[1])
        if isinstance(node, Join):
            return self._join(node, children[0], children[1])
        if isinstance(node, GroupBy):
            return self._group_by(node, children[0])
        if isinstance(node, Udf):
            return self._udf(node, children[0])
        if isinstance(node, Encrypt):
            return self._encrypt(node, children[0])
        if isinstance(node, Decrypt):
            return self._decrypt(node, children[0])
        raise ExecutionError(f"no execution rule for {type(node).__name__}")

    # ------------------------------------------------------------------
    # Relational operators
    # ------------------------------------------------------------------
    def _scan(self, node: BaseRelationNode) -> Table:
        name = node.relation.name
        if name not in self.catalog:
            raise ExecutionError(f"no table {name!r} in the catalog")
        table = self.catalog[name]
        ordered = [a for a in node.relation.attribute_names
                   if a in node.projection]
        if tuple(ordered) != table.columns:
            return table.bulk_project(ordered)
        return table

    def _project(self, node: Projection, child: Table) -> Table:
        ordered = [c for c in child.columns if c in node.attributes]
        return child.bulk_project(ordered, name="π")

    def _select(self, node: Selection, child: Table) -> Table:
        encryptor = ConstantEncryptor(self._constant_store or self.keystore)
        select = compile_predicate(node.predicate, child.columns, encryptor,
                                   local_keystore=self.keystore)
        # Note 2 decrypts through this module's decrypt_column, like the
        # Decrypt operator: same pool, same name for whoever observes it.
        rows = select(child.rows, partial(decrypt_column, pool=self.pool))
        return Table._from_trusted("σ", child.columns, rows)

    def _product(self, left: Table, right: Table) -> Table:
        columns = left.columns + right.columns
        rows = [lr + rr for lr in left.rows for rr in right.rows]
        return Table._from_trusted("×", columns, rows)

    # -- joins ----------------------------------------------------------
    def _join(self, node: Join, left: Table, right: Table) -> Table:
        columns = left.columns + right.columns
        equalities, residual = node.partition_condition(left.columns,
                                                        right.columns)
        checks = _residual_checks(residual, left, right)
        if equalities:
            rows = self._hash_join(left, right, equalities, checks)
        else:
            # Pure theta-join: no hashable conjunct, fall back to a
            # filtered product (the predicate is still compiled once).
            rows = [
                lr + rr
                for lr in left.rows for rr in right.rows
                if _residuals_hold(checks, lr, rr)
            ]
        return Table._from_trusted("⋈", columns, rows)

    def _hash_join(self, left: Table, right: Table,
                   equalities: list[tuple[str, str]],
                   checks: list[_ResidualCheck]) -> list[tuple]:
        left_positions = left.positions([l for l, _ in equalities])
        right_positions = right.positions([r for _, r in equalities])
        # Build on the smaller operand, probe with the larger one; the
        # output row is always assembled left-then-right.  Both sides
        # also report their key columns' value representations so
        # incomparable keys raise (like a σ_C(L×R) evaluation does)
        # instead of silently never colliding — see _row_keys.
        build_is_left = len(left) <= len(right)
        if build_is_left:
            buckets, build_sigs = _build_buckets(left.rows, left_positions)
            probe_rows, probe_positions = right.rows, right_positions
        else:
            buckets, build_sigs = _build_buckets(right.rows, right_positions)
            probe_rows, probe_positions = left.rows, left_positions
        keys, probe_sigs = _row_keys(probe_rows, probe_positions)
        for (l, r), build, probe in zip(equalities, build_sigs, probe_sigs):
            if build and len(build | probe) > 1:
                raise ExecutionError(
                    f"join condition {l}={r} compares incompatible value "
                    f"representations: {sorted(map(str, build | probe))}"
                )
        joined: list[tuple] = []
        for key, prow in zip(keys, probe_rows):
            matches = buckets.get(key)
            if not matches:
                continue
            if build_is_left:
                for brow in matches:
                    if _residuals_hold(checks, brow, prow):
                        joined.append(brow + prow)
            else:
                for brow in matches:
                    if _residuals_hold(checks, prow, brow):
                        joined.append(prow + brow)
        return joined

    # -- grouping and aggregation ---------------------------------------
    def _group_by(self, node: GroupBy, child: Table) -> Table:
        group_columns = [c for c in child.columns
                         if c in node.group_attributes]
        positions = child.positions(group_columns)
        agg_positions = [
            child.column_position(a.attribute)
            if a.attribute is not None else None
            for a in node.aggregates
        ]
        out_columns = list(group_columns) + [
            a.output_name for a in node.aggregates
        ]

        if not child.rows and not group_columns:
            # SQL standard: a global aggregate over an empty input yields
            # one row — COUNT is 0, every other aggregate is NULL.
            output = tuple(
                0 if a.function is AggregateFunction.COUNT else None
                for a in node.aggregates
            )
            return Table._from_trusted("γ", tuple(out_columns), [output])

        groups, _ = _build_buckets(child.rows, positions)
        rows = []
        for members in groups.values():
            first = members[0]
            output_row: list[object] = [first[p] for p in positions]
            for aggregate, position in zip(node.aggregates, agg_positions):
                if position is None:
                    output_row.append(len(members))
                    continue
                values = [m[position] for m in members]
                output_row.append(self._aggregate(aggregate.function, values))
            rows.append(tuple(output_row))
        return Table._from_trusted("γ", tuple(out_columns), rows)

    def _aggregate(self, function: AggregateFunction,
                   values: list[object]) -> object:
        # SQL NULL semantics: aggregates skip NULLs; COUNT(attr) counts
        # the non-NULL values; every other aggregate over an all-NULL
        # (or empty) group is NULL.
        non_null = [v for v in values if v is not None]
        if function is AggregateFunction.COUNT:
            return len(non_null)
        if not non_null:
            return None
        if any(isinstance(v, EncryptedValue) for v in non_null):
            # _aggregate_encrypted re-checks every value, so a group
            # mixing representations raises the same diagnostic whatever
            # order the values arrive in.
            return self._aggregate_encrypted(function, non_null)
        if function is AggregateFunction.SUM:
            return sum(non_null)  # type: ignore[arg-type]
        if function is AggregateFunction.AVG:
            return sum(non_null) / len(non_null)  # type: ignore[arg-type]
        if function is AggregateFunction.MIN:
            return min(non_null)  # type: ignore[type-var]
        if function is AggregateFunction.MAX:
            return max(non_null)  # type: ignore[type-var]
        raise ExecutionError(f"unsupported aggregate {function}")

    def _aggregate_encrypted(self, function: AggregateFunction,
                             values: list[object]) -> object:
        encrypted = []
        for value in values:
            if value is None:
                # NULLs stay NULL under encryption; skip them before the
                # mix check so encrypted and plaintext grouping agree.
                continue
            if not isinstance(value, EncryptedValue):
                raise ExecutionError(
                    "aggregate mixes plaintext and encrypted values"
                )
            encrypted.append(value)
        if not encrypted:
            return None
        scheme = encrypted[0].scheme
        if function in (AggregateFunction.MIN, AggregateFunction.MAX):
            if scheme is not EncryptionScheme.OPE:
                raise ExecutionError(
                    f"min/max over {scheme} ciphertexts is not supported"
                )
            chosen = encrypted[0]
            for value in encrypted[1:]:
                if function is AggregateFunction.MIN:
                    if value.less_than(chosen):
                        chosen = value
                elif chosen.less_than(value):
                    chosen = value
            return chosen
        if function in (AggregateFunction.SUM, AggregateFunction.AVG):
            if scheme is not EncryptionScheme.PAILLIER:
                raise ExecutionError(
                    f"sum/avg over {scheme} ciphertexts is not supported"
                )
            from repro.crypto.paillier import PaillierCiphertext

            key_name = encrypted[0].key_name
            tokens = []
            for value in encrypted:
                if value.scheme is not EncryptionScheme.PAILLIER:
                    raise ExecutionError(
                        "homomorphic addition needs Paillier values"
                    )
                if value.key_name != key_name:
                    raise ExecutionError(
                        "adding ciphertexts under different keys"
                    )
                tokens.append(value.token)
            # PaillierCiphertext.__radd__ folds sum()'s integer 0 start
            # value to identity, so the whole group adds in one builtin.
            total = sum(tokens)
            assert isinstance(total, PaillierCiphertext)
            return EncryptedAggregate(
                key_name=key_name,
                ciphertext_sum=total,
                count=len(encrypted),
                is_average=function is AggregateFunction.AVG,
            )
        raise ExecutionError(f"unsupported encrypted aggregate {function}")

    def _udf(self, node: Udf, child: Table) -> Table:
        if node.name not in self.udfs:
            raise ExecutionError(f"unknown udf {node.name!r}")
        function = self.udfs[node.name]
        input_positions = {
            a: child.column_position(a) for a in node.inputs
        }
        out_columns = [c for c in child.columns
                       if c not in node.inputs or c == node.output]
        out_positions = child.positions(out_columns)
        output_index = out_columns.index(node.output)
        rows = []
        for row in child.rows:
            arguments = {a: row[p] for a, p in input_positions.items()}
            result = function(arguments)
            projected = [row[p] for p in out_positions]
            projected[output_index] = result
            rows.append(tuple(projected))
        return Table._from_trusted("µ", tuple(out_columns), rows)

    # ------------------------------------------------------------------
    # Encryption operators
    # ------------------------------------------------------------------
    def _require_keystore(self) -> KeyStore:
        if self.keystore is None:
            raise ExecutionError("this evaluator holds no keys")
        return self.keystore

    def _encrypt(self, node: Encrypt, child: Table) -> Table:
        # Whole-column kernels: one Python-level dispatch per column —
        # scheme routing, cipher lookup, and key checks resolve once,
        # not once per cell (NULLs pass through inside the kernel).
        keystore = self._require_keystore()
        replacements = {}
        for attribute in sorted(node.attributes):
            material = keystore.material_for_attribute(attribute)
            replacements[attribute] = encrypt_column(
                material, child.column_values(attribute), pool=self.pool)
        return child.replace_columns(replacements, name="enc")

    def _decrypt(self, node: Decrypt, child: Table) -> Table:
        keystore = self._require_keystore()
        replacements = {}
        for attribute in sorted(node.attributes):
            material = keystore.material_for_attribute(attribute)
            replacements[attribute] = decrypt_column(
                material, child.column_values(attribute), pool=self.pool)
        return child.replace_columns(replacements, name="dec")


def _residual_checks(residual: list, left: Table,
                     right: Table) -> list[_ResidualCheck]:
    """Residual conjuncts compiled to (selector, comparator, selector).

    Selectors address the *operand* rows directly, so residuals are
    tested on matched pairs before the output row is materialized.
    """
    left_width = len(left.columns)
    combined = {c: i for i, c in enumerate(left.columns + right.columns)}
    checks: list[_ResidualCheck] = []
    for basic in residual:
        assert isinstance(basic, AttributeComparisonPredicate)
        lpos = combined[basic.left]
        rpos = combined[basic.right]
        checks.append((
            (lpos < left_width, lpos if lpos < left_width
             else lpos - left_width),
            compile_comparison(basic.op),
            (rpos < left_width, rpos if rpos < left_width
             else rpos - left_width),
        ))
    return checks


def _row_keys(rows: list[tuple], positions: tuple[int, ...],
              ) -> tuple[list, list[set[object]]]:
    """The hashable join/group key of every row, one key column at a time.

    Each key column is taken once — one pass for the representations
    it holds (:func:`~repro.engine.values.signature`, NULLs exempt),
    one for its keys — instead of deciding both per row.  Returns the
    keys (the bare value for a single column, a tuple otherwise) and
    the signatures per column.

    Incomparable representations can never hash-collide (different-key
    ciphertext group keys never match, plaintext never matches a
    token), so a hash join would silently return no matches where
    evaluating σ_C(L×R) raises when it reaches such a pair.  The join
    compares the signatures of its operands' key columns and raises on
    a mix — slightly *eager* versus σ_C(L×R)'s conjunct
    short-circuiting, but refusing loudly beats a silently empty
    result.
    """
    columns, signatures = [], []
    for position in positions:
        column = [row[position] for row in rows]
        seen = set(map(signature, column))
        seen.discard(None)
        signatures.append(seen)
        if seen - {PLAINTEXT} or any(
                issubclass(kind, (list, set, dict))
                for kind in set(map(type, column))):
            column = [_join_key(value) for value in column]
        columns.append(column)
    if len(columns) == 1:
        return columns[0], signatures
    return (list(zip(*columns)) if columns else [()] * len(rows)), signatures


def _build_buckets(rows: list[tuple], positions: tuple[int, ...],
                   ) -> tuple[dict[object, list[tuple]],
                              list[set[object]]]:
    """Partition ``rows`` by their (hashable) key on ``positions``.

    Also returns the per-column value-representation signatures (see
    :func:`_row_keys`), so the probe can reject incomparable keys.
    """
    keys, signatures = _row_keys(rows, positions)
    buckets: dict[object, list[tuple]] = {}
    for key, row in zip(keys, rows):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    return buckets, signatures


def _residuals_hold(checks: list[_ResidualCheck],
                    lrow: tuple, rrow: tuple) -> bool:
    """Evaluate compiled residual conjuncts on one operand-row pair."""
    for (left_side, lpos), comparator, (right_side, rpos) in checks:
        left = lrow[lpos] if left_side else rrow[lpos]
        right = lrow[rpos] if right_side else rrow[rpos]
        if not comparator(left, right):
            return False
    return True


def _join_key(value: object) -> object:
    """A hashable grouping key for plaintext or encrypted values."""
    if isinstance(value, EncryptedValue):
        return value.group_key()
    if isinstance(value, (list, set, dict)):
        raise ExecutionError(f"unhashable join key {type(value).__name__}")
    return value
