"""Plan execution over in-memory tables, plaintext or encrypted.

The :class:`Executor` evaluates a (possibly extended) query plan against a
catalog of base tables.  It understands the model's Encrypt/Decrypt
operators — applying real ciphers from a :class:`KeyStore` — and executes
relational operators over encrypted values whenever the scheme permits
(deterministic equality, OPE ranges and min/max, Paillier sums/averages),
so an extended plan produced by :func:`repro.core.extension.minimally_extend`
runs end to end and produces the same answers as its plaintext original.

Every operator works on columns (:class:`~repro.engine.table.Table`):
π and rename pick columns; σ, ⋈ and γ compute row indices and gather
each column by them in one C-level pass; Encrypt and Decrypt swap one
column at a time.  σ is a column kernel over a selection vector
(:func:`~repro.engine.expressions.compile_predicate`).  ⋈ hashes the
smaller operand on its equality conjuncts — a NULL key matches nothing,
and when every build key is unique the pairs come out of one lookup
map over the probe keys — then tests the residual conjuncts on the
pairs.  γ gathers each aggregated column once, group after group, and
folds every group in one map; only a column holding a NULL is filtered
group by group.  An executor holds no results (the distributed runtime
memoizes whole fragments).

Encrypt states the representation read from the column
:func:`~repro.engine.codec.encrypt_column` returned: a column sealed
under another key or scheme than the material's, one whose cells are
not its scheme's tokens, or a list mixing sealed and plaintext cells is
refused where it is built.

With a :class:`~repro.parallel.WorkerPool` attached, the Encrypt/Decrypt
operators (and §5 note 2's selection decrypts) fan column chunks across
worker processes; everything else runs inline.

The executor makes no ordering decision: :meth:`Executor.execute_step`
runs the nodes of a :func:`repro.core.plan.physical_step` in the order
given and appends to :attr:`Executor.record` one row per node, ``(node,
rows in, rows out, values sealed, values opened, seconds)``.  The values
sealed are the cells Encrypt hands :func:`encrypt_column`; the values opened
are every cell through :meth:`Executor._open`, Decrypt's and §5 note 2's.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, chain, compress, repeat
from operator import is_not, itemgetter
from time import perf_counter
from typing import Callable, Mapping, Sequence

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
from repro.core.plan import QueryPlan, physical_step
from repro.core.predicates import AttributeComparisonPredicate
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial, KeyStore
from repro.engine.codec import decrypt_column, encrypt_column
from repro.engine.expressions import (
    ConstantEncryptor,
    compile_comparison,
    compile_predicate,
)
from repro.engine.table import Table, gather, stored
from repro.engine.values import (
    PLAINTEXT,
    EncryptedAggregate,
    as_column,
    is_sealed,
)
from repro.exceptions import ExecutionError
from repro.parallel.pool import WorkerPool

#: A user-defined function: receives {input attribute: value}, returns one
#: value (named after the node's output attribute).
UdfCallable = Callable[[dict[str, object]], object]

_ORDER = (AggregateFunction.MIN, AggregateFunction.MAX)


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
        #: One row per node evaluated, in order (module docstring).
        self.record: list[tuple[PlanNode, int, int, int, int, float]] = []
        self._sealed = self._opened = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, plan: QueryPlan | PlanNode,
                node: PlanNode | None = None) -> Table:
        """Evaluate a plan (columns in its result order), every node
        single-site, or its subtree at ``node``."""
        if node is None:
            plan = plan if isinstance(plan, QueryPlan) else QueryPlan(plan)
            return plan.in_result_order(self.execute(plan, plan.root))
        step = physical_step(plan, node, plan)
        return self.execute_step(step, [
            self.execute(plan, child) for child in step[-1].children])

    def execute_step(self, step: tuple[PlanNode, ...],
                     children: list[Table]) -> Table:
        """Run a :func:`~repro.core.plan.physical_step`'s nodes in order,
        the first over ``children``, each over the one before."""
        for node in step:
            self._sealed = self._opened = 0
            start = perf_counter()
            table = self.execute_node(node, children)
            self.record.append((node, sum(map(len, children)), len(table),
                                self._sealed, self._opened,
                                perf_counter() - start))
            children = [table]
        return children[0]

    def execute_node(self, node: PlanNode, children: list[Table]) -> Table:
        """Evaluate one operator over already materialized operands
        (:meth:`execute_step` writes its row of :attr:`record`)."""
        if isinstance(node, BaseRelationNode):
            return self._scan(node)
        if isinstance(node, Projection):
            return self._project(node, children[0])
        if isinstance(node, Selection):
            return self._select(node, children[0])
        if isinstance(node, CartesianProduct):
            return _joined("×", *children, *_all_pairs(*children))
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
        kept = select(child, self._open)
        if len(kept) == len(child):
            return child.rename("σ")
        return child.take(kept, "σ")

    # -- joins ----------------------------------------------------------
    def _join(self, node: Join, left: Table, right: Table) -> Table:
        equalities, residual = node.partition_condition(left.columns,
                                                        right.columns)
        # A pure theta-join has no hashable conjunct: its residuals
        # filter the product's pairs.
        pairs = _hash_join(left, right, equalities) if equalities \
            else _all_pairs(left, right)
        for basic in residual:
            assert isinstance(basic, AttributeComparisonPredicate)
            pairs = _residual(basic, left, right, *pairs)
        return _joined("⋈", left, right, *pairs)

    # -- grouping and aggregation ---------------------------------------
    def _group_by(self, node: GroupBy, child: Table) -> Table:
        group_columns = [c for c in child.columns
                         if c in node.group_attributes]
        out_columns = tuple(group_columns) + tuple(
            a.output_name for a in node.aggregates)

        if not len(child) and not group_columns:
            # SQL standard: a global aggregate over an empty input yields
            # one row — COUNT is 0, every other aggregate is NULL.
            return Table("γ", out_columns, [tuple(
                0 if a.function is AggregateFunction.COUNT else None
                for a in node.aggregates)])

        groups = list(_buckets(_keys(child, group_columns)).values())
        firsts = [members[0] for members in groups]
        positions = child.positions(group_columns)
        data = [gather(child.data[p], firsts) for p in positions]
        kinds = [child.representations[p] for p in positions]
        # An aggregated column is gathered once, group g at spans[g].
        order = list(chain.from_iterable(groups))
        bounds = list(accumulate(map(len, groups), initial=0))
        spans = list(map(slice, bounds, bounds[1:]))
        # The group columns carry their representation; each aggregate's
        # is born here.
        for aggregate in node.aggregates:
            if aggregate.attribute is None:
                data.append(tuple(map(len, groups)))
                kinds.append(PLAINTEXT if groups else None)
                continue
            position = child.column_position(aggregate.attribute)
            kind = child.representations[position]
            cells = _aggregate(aggregate.function, kind,
                               gather(child.data[position], order), spans)
            if is_sealed(kind) and aggregate.function in _ORDER:
                # OPE min/max: tokens of the column's own key.
                cells = as_column(kind, cells)
            cells, kind = stored(cells, aggregate.output_name)
            data.append(cells)
            kinds.append(kind)
        return Table._of("γ", out_columns, tuple(data), tuple(kinds),
                         len(groups))

    def _udf(self, node: Udf, child: Table) -> Table:
        if node.name not in self.udfs:
            raise ExecutionError(f"unknown udf {node.name!r}")
        function = self.udfs[node.name]
        inputs = {a: child.column(a) for a in node.inputs}
        results = [function(dict(zip(inputs, values)))
                   for values in zip(*inputs.values())]
        out_columns = [c for c in child.columns
                       if c not in node.inputs or c == node.output]
        table = child.with_column(node.output, results, name="µ")
        return table.bulk_project(out_columns, name="µ")

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
        table = child.rename("enc")
        for attribute in sorted(node.attributes):
            material = keystore.material_for_attribute(attribute)
            if attribute not in child.columns:  # a π that ran first dropped it
                continue
            column = child.column(attribute)
            self._sealed += len(column)
            sealed = encrypt_column(material, column, pool=self.pool)
            table = table.with_column(attribute, sealed)
            kind = table.representation(attribute)
            if isinstance(kind, tuple) \
                    and kind != (material.name, material.scheme):
                raise ExecutionError(
                    f"Encrypt of {attribute!r} under {material.name} "
                    f"built a column sealed under {kind}")
        return table

    def _decrypt(self, node: Decrypt, child: Table) -> Table:
        keystore = self._require_keystore()
        table = child.rename("dec")
        for attribute in sorted(node.attributes):
            material = keystore.material_for_attribute(attribute)
            table = table.with_column(attribute, self._open(
                material, child.column(attribute)))
        return table

    def _open(self, material: KeyMaterial,
              column: Sequence[object]) -> list[object]:
        """``decrypt_column`` (resolved at call time), counted: the one
        route of the Decrypt operator and of §5 note 2 inside σ."""
        self._opened += len(column)
        return decrypt_column(material, column, pool=self.pool)


def _joined(name: str, left: Table, right: Table,
            left_indices: list[int], right_indices: list[int]) -> Table:
    """The pairs (``left_indices[i]``, ``right_indices[i]``) as one
    table of both operands' columns."""
    return Table._of(
        name, left.columns + right.columns,
        tuple(gather(column, left_indices) for column in left.data)
        + tuple(gather(column, right_indices) for column in right.data),
        left.representations + right.representations, len(left_indices))


def _all_pairs(left: Table, right: Table) -> tuple[list[int], list[int]]:
    """Every (left, right) row pair, left-major."""
    width = len(right)
    return ([index for index in range(len(left)) for _ in range(width)],
            list(range(width)) * len(left))


def _hash_join(left: Table, right: Table,
               equalities: list[tuple[str, str]],
               ) -> tuple[list[int], list[int]]:
    """The (left, right) row pairs whose equality keys match: hash the
    smaller operand, probe with the larger one, pairs in probe order."""
    build = (left, [l for l, _ in equalities])
    probe = (right, [r for _, r in equalities])
    build_is_left = len(left) <= len(right)
    if not build_is_left:
        build, probe = probe, build
    build_keys = _keys(*build)
    probe_keys = _keys(*probe)
    # Keys of two representations never collide, so hashing would return
    # nothing where σ_C(L×R) raises on such a pair: refuse them up front.
    for l, r in equalities:
        kinds = [left.representation(l), right.representation(r)]
        if None not in kinds and kinds[0] != kinds[1]:
            raise ExecutionError(
                f"join condition {l}={r} compares incompatible value "
                f"representations: {sorted(map(str, kinds))}")
    # A NULL key equals nothing: none is built, so none is found.
    composite = len(equalities) > 1
    index = dict(zip(build_keys, range(len(build_keys))))
    if len(index) == len(build_keys):
        # Every build key unique: at most one match per probe row, so
        # the pairs come straight out of one lookup map.
        _drop_null_keys(index, composite)
        found = list(map(index.get, probe_keys))
        hit = list(map(is_not, found, repeat(None)))
        built = list(compress(found, hit))
        probed = list(compress(range(len(found)), hit))
    else:
        buckets = _drop_null_keys(_buckets(build_keys), composite)
        built, probed = [], []
        for row, matches in enumerate(map(buckets.get, probe_keys)):
            if matches:
                built += matches
                probed += [row] * len(matches)
    return (built, probed) if build_is_left else (probed, built)


def _drop_null_keys(index: dict, composite: bool) -> dict:
    """``index`` without the keys holding a NULL, which equals nothing."""
    for key in [key for key in index if None in key] if composite else [None]:
        index.pop(key, None)
    return index


def _residual(basic: AttributeComparisonPredicate, left: Table,
              right: Table, left_indices: list[int],
              right_indices: list[int]) -> tuple[list[int], list[int]]:
    """The pairs on which one residual conjunct holds, compared as
    values (a sealed cell leaves its column as an EncryptedValue)."""
    sides = []
    for attribute in (basic.left, basic.right):
        on_left = attribute in left.columns
        table = left if on_left else right
        column = table.column(attribute)
        sides.append(map(column.__getitem__,
                         left_indices if on_left else right_indices))
    mask = list(map(compile_comparison(basic.op), *sides))
    return (list(compress(left_indices, mask)),
            list(compress(right_indices, mask)))


#: A plaintext aggregate over one group's non-NULL cells.
_PLAIN_FOLDS = {AggregateFunction.SUM: sum, AggregateFunction.MIN: min,
                AggregateFunction.MAX: max,
                AggregateFunction.AVG: lambda cells: sum(cells) / len(cells)}


def _aggregate(function: AggregateFunction, kind: object,
               column: Sequence[object], spans: list[slice]) -> list:
    """One aggregate of a column stated ``kind`` over each group, whose
    cells are the span of ``column`` it names, in row order.

    SQL NULL semantics: aggregates skip NULLs, so COUNT(attr) counts the
    non-NULL values and any other aggregate of an all-NULL group is
    NULL; only a column holding a NULL is filtered group by group."""
    groups = list(map(column.__getitem__, spans))
    nulls = None in column
    if nulls:
        groups = [[v for v in cells if v is not None] for cells in groups]
    if function is AggregateFunction.COUNT:
        return list(map(len, groups))
    fold = partial(_aggregate_encrypted, function, kind) \
        if isinstance(kind, tuple) else _PLAIN_FOLDS[function]
    if nulls:
        return [fold(cells) if cells else None for cells in groups]
    return list(map(fold, groups))


def _aggregate_encrypted(function: AggregateFunction,
                         kind: tuple[str, object],
                         tokens: list[object]) -> object:
    """MIN/MAX over OPE tokens, SUM/AVG over Paillier ones: the column
    is stated under one key and scheme, so no value is checked again."""
    key_name, scheme = kind
    if function in _ORDER:
        if scheme is not EncryptionScheme.OPE:
            raise ExecutionError(
                f"min/max over {scheme} ciphertexts is not supported")
        pick = min if function is AggregateFunction.MIN else max
        return pick(tokens, key=itemgetter(0))  # (token, recovery)
    if function in (AggregateFunction.SUM, AggregateFunction.AVG):
        if scheme is not EncryptionScheme.PAILLIER:
            raise ExecutionError(
                f"sum/avg over {scheme} ciphertexts is not supported")
        # PaillierCiphertext.__radd__ folds sum()'s integer 0 start
        # value to identity, so the whole group adds in one builtin.
        return EncryptedAggregate(
            key_name=key_name,
            ciphertext_sum=sum(tokens),  # type: ignore[arg-type]
            count=len(tokens),
            is_average=function is AggregateFunction.AVG,
        )
    raise ExecutionError(f"unsupported encrypted aggregate {function}")


def _keys(table: Table, columns: list[str]) -> Sequence[object]:
    """The hashable join/group key of every row of ``table`` on
    ``columns``: the bare value for a single column, a tuple otherwise.

    A sealed DETERMINISTIC or OPE column is keyed by its tokens (bytes
    or int, hashed and compared in C), which within one key and scheme
    are equal exactly when the plaintexts are; a join refuses key
    columns of two representations before a token meets a key of
    another.  The other schemes cannot be grouped.
    """
    keys = []
    for position in table.positions(columns):
        column = table.data[position]
        kind = table.representations[position]
        if is_sealed(kind):
            scheme = kind[1]  # type: ignore[index]
            if scheme is EncryptionScheme.OPE:
                column = [None if token is None else token[0]
                          for token in column]
            elif scheme is not EncryptionScheme.DETERMINISTIC:
                raise ExecutionError(
                    f"{scheme} ciphertexts cannot be grouped or hash-joined")
        else:
            for cls in set(map(type, column)):
                if issubclass(cls, (list, set, dict)):
                    raise ExecutionError(
                        f"unhashable join key {cls.__name__}")
        keys.append(column)
    if len(keys) == 1:
        return keys[0]
    return list(zip(*keys)) if keys else [()] * len(table)


def _buckets(keys: Sequence[object]) -> dict[object, list[int]]:
    """Row indices by key, keys in first-seen order."""
    buckets: dict[object, list[int]] = {}
    for index, key in enumerate(keys):
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [index]
        else:
            bucket.append(index)
    return buckets
