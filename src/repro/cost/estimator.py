"""Cardinality, size, and CPU-time estimation for query plans.

Stands in for the PostgreSQL optimizer estimates the paper's tool consumed
("the estimates of the size of the processed data and the processing time
for the relational operators were those returned by the PostgreSQL
optimizer").  The estimator walks a (possibly extended) plan bottom-up
and produces a :class:`NodeEstimate` per node: output rows, per-attribute
widths and distinct counts, the encryption state of every visible
attribute, and the CPU seconds the operation takes — including
encryption, decryption, and homomorphic-aggregation work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

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
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Predicate,
)
from repro.core.requirements import EncryptionScheme
from repro.cost import factors
from repro.exceptions import EstimationError

#: Default selectivities per comparison operator (textbook values).
_SELECTIVITY = {
    ComparisonOp.EQ: None,  # 1 / NDV, computed per attribute
    ComparisonOp.NEQ: 0.9,
    ComparisonOp.LT: 1.0 / 3.0,
    ComparisonOp.LE: 1.0 / 3.0,
    ComparisonOp.GT: 1.0 / 3.0,
    ComparisonOp.GE: 1.0 / 3.0,
    ComparisonOp.LIKE: 0.1,
    ComparisonOp.IN: None,  # len(values) / NDV
}


@dataclass
class NodeEstimate:
    """Estimated properties of the relation produced by one plan node."""

    rows: float
    plain_width: dict[str, int] = field(default_factory=dict)
    ndv: dict[str, float] = field(default_factory=dict)
    scheme: dict[str, EncryptionScheme | None] = field(default_factory=dict)
    cpu_seconds: float = 0.0
    io_bytes: float = 0.0

    def width_of(self, attribute: str) -> int:
        """Stored width of ``attribute``, honouring its encryption state."""
        plain = self.plain_width[attribute]
        current = self.scheme.get(attribute)
        if current is None:
            return plain
        return factors.encrypted_width(current, plain)

    @property
    def row_bytes(self) -> float:
        """Width of one output tuple."""
        return float(sum(self.width_of(a) for a in self.plain_width))

    @property
    def output_bytes(self) -> float:
        """Total size of the produced relation."""
        return self.rows * self.row_bytes

    def bytes_if_encrypted(self, attributes: frozenset[str],
                           schemes: Mapping[str, EncryptionScheme]) -> float:
        """Output size if ``attributes`` were additionally encrypted.

        Used by the assignment search to price candidate-dependent
        encryption without materialising extended plans.
        """
        total = 0.0
        for attribute in self.plain_width:
            if self.scheme.get(attribute) is None and attribute in attributes:
                scheme = schemes.get(attribute,
                                     EncryptionScheme.DETERMINISTIC)
                total += factors.encrypted_width(
                    scheme, self.plain_width[attribute]
                )
            else:
                total += self.width_of(attribute)
        return self.rows * total


class PlanEstimator:
    """Bottom-up estimator for (extended) query plans.

    Parameters
    ----------
    schemes:
        Attribute → encryption scheme used when an Encrypt node touches
        the attribute (defaults to deterministic).  Produced by
        :func:`repro.core.requirements.chosen_schemes`.
    """

    def __init__(self, schemes: Mapping[str, EncryptionScheme] | None = None,
                 ) -> None:
        self._schemes = dict(schemes or {})

    def scheme_for(self, attribute: str) -> EncryptionScheme:
        """Scheme used when encrypting ``attribute``."""
        return self._schemes.get(attribute, EncryptionScheme.DETERMINISTIC)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def estimate(self, plan: QueryPlan) -> dict[PlanNode, NodeEstimate]:
        """Estimate every node; the result maps node → estimate."""
        estimates: dict[PlanNode, NodeEstimate] = {}
        for node in plan.postorder():
            children = [estimates[c] for c in node.children]
            estimates[node] = self._estimate_node(node, children)
        return estimates

    # ------------------------------------------------------------------
    # Per-operator rules
    # ------------------------------------------------------------------
    def _estimate_node(self, node: PlanNode,
                       children: list[NodeEstimate]) -> NodeEstimate:
        if isinstance(node, BaseRelationNode):
            return self._estimate_leaf(node)
        if isinstance(node, Projection):
            return self._estimate_projection(node, children[0])
        if isinstance(node, Selection):
            return self._estimate_selection(node, children[0])
        if isinstance(node, (Join, CartesianProduct)):
            return self._estimate_join(node, children[0], children[1])
        if isinstance(node, GroupBy):
            return self._estimate_group_by(node, children[0])
        if isinstance(node, Udf):
            return self._estimate_udf(node, children[0])
        if isinstance(node, Encrypt):
            return self._estimate_crypto(node, children[0], encrypting=True)
        if isinstance(node, Decrypt):
            return self._estimate_crypto(node, children[0], encrypting=False)
        raise EstimationError(f"no estimation rule for {type(node).__name__}")

    def _estimate_leaf(self, node: BaseRelationNode) -> NodeEstimate:
        relation = node.relation
        rows = float(relation.cardinality)
        widths: dict[str, int] = {}
        ndv: dict[str, float] = {}
        for name in node.projection:
            spec = relation.spec(name)
            widths[name] = spec.width
            ndv[name] = max(1.0, spec.distinct_fraction * rows)
        estimate = NodeEstimate(
            rows=rows,
            plain_width=widths,
            ndv=ndv,
            scheme={name: None for name in widths},
            cpu_seconds=rows * factors.SCAN_SECONDS_PER_ROW,
        )
        estimate.io_bytes = estimate.output_bytes
        return estimate

    def _estimate_projection(self, node: Projection,
                             child: NodeEstimate) -> NodeEstimate:
        kept = node.attributes
        estimate = NodeEstimate(
            rows=child.rows,
            plain_width={a: w for a, w in child.plain_width.items()
                         if a in kept},
            ndv={a: n for a, n in child.ndv.items() if a in kept},
            scheme={a: s for a, s in child.scheme.items() if a in kept},
            cpu_seconds=child.rows * factors.PROJECT_SECONDS_PER_ROW,
        )
        estimate.io_bytes = estimate.output_bytes
        return estimate

    def _predicate_selectivity(self, predicate: Predicate,
                               child: NodeEstimate) -> float:
        selectivity = 1.0
        for basic in predicate.basic_conditions():
            if isinstance(basic, AttributeValuePredicate):
                base = _SELECTIVITY[basic.op]
                if base is None:
                    ndv = max(1.0, child.ndv.get(basic.attribute, 10.0))
                    count = (len(basic.value)
                             if basic.op is ComparisonOp.IN
                             and isinstance(basic.value,
                                            (tuple, list, set, frozenset))
                             else 1)
                    selectivity *= min(1.0, count / ndv)
                else:
                    selectivity *= base
            elif isinstance(basic, AttributeComparisonPredicate):
                if basic.op is ComparisonOp.EQ:
                    left_ndv = max(1.0, child.ndv.get(basic.left, 10.0))
                    right_ndv = max(1.0, child.ndv.get(basic.right, 10.0))
                    selectivity *= 1.0 / max(left_ndv, right_ndv)
                else:
                    selectivity *= 1.0 / 3.0
        return max(selectivity, 1e-9)

    def _estimate_selection(self, node: Selection,
                            child: NodeEstimate) -> NodeEstimate:
        selectivity = self._predicate_selectivity(node.predicate, child)
        rows = max(1.0, child.rows * selectivity)
        shrink = rows / max(child.rows, 1.0)
        estimate = NodeEstimate(
            rows=rows,
            plain_width=dict(child.plain_width),
            ndv={a: max(1.0, min(n, n * shrink + 1))
                 for a, n in child.ndv.items()},
            scheme=dict(child.scheme),
            cpu_seconds=child.rows * factors.PREDICATE_SECONDS_PER_ROW,
        )
        estimate.io_bytes = child.output_bytes + estimate.output_bytes
        return estimate

    def _estimate_join(self, node: Join | CartesianProduct,
                       left: NodeEstimate,
                       right: NodeEstimate) -> NodeEstimate:
        if isinstance(node, Join):
            rows = left.rows * right.rows
            equi = False
            for basic in node.condition.basic_conditions():
                assert isinstance(basic, AttributeComparisonPredicate)
                if basic.op is ComparisonOp.EQ:
                    equi = True
                    left_ndv = max(1.0, left.ndv.get(
                        basic.left, right.ndv.get(basic.left, 10.0)))
                    right_ndv = max(1.0, right.ndv.get(
                        basic.right, left.ndv.get(basic.right, 10.0)))
                    rows /= max(left_ndv, right_ndv)
                else:
                    rows /= 3.0
            rows = max(1.0, rows)
            if equi:
                cpu = ((left.rows + right.rows) * factors.HASH_SECONDS_PER_ROW
                       + rows * factors.OUTPUT_SECONDS_PER_ROW)
            else:
                cpu = (left.rows * right.rows
                       * factors.NESTED_LOOP_PAIR_SECONDS
                       + rows * factors.OUTPUT_SECONDS_PER_ROW)
        else:
            rows = max(1.0, left.rows * right.rows)
            cpu = rows * factors.OUTPUT_SECONDS_PER_ROW
        estimate = NodeEstimate(
            rows=rows,
            plain_width={**left.plain_width, **right.plain_width},
            ndv={a: min(n, rows) for a, n in {**left.ndv,
                                              **right.ndv}.items()},
            scheme={**left.scheme, **right.scheme},
            cpu_seconds=cpu,
        )
        estimate.io_bytes = (left.output_bytes + right.output_bytes
                             + estimate.output_bytes)
        return estimate

    def _estimate_group_by(self, node: GroupBy,
                           child: NodeEstimate) -> NodeEstimate:
        groups = 1.0
        for attribute in node.group_attributes:
            groups *= max(1.0, child.ndv.get(attribute, 10.0))
        groups = max(1.0, min(groups, child.rows))
        widths: dict[str, int] = {}
        ndv: dict[str, float] = {}
        scheme: dict[str, EncryptionScheme | None] = {}
        for attribute in node.group_attributes:
            widths[attribute] = child.plain_width[attribute]
            ndv[attribute] = min(child.ndv.get(attribute, groups), groups)
            scheme[attribute] = child.scheme.get(attribute)
        cpu = child.rows * factors.HASH_SECONDS_PER_ROW \
            + groups * factors.AGGREGATE_SECONDS_PER_ROW
        for aggregate in node.aggregates:
            name = aggregate.output_name
            widths[name] = 8
            ndv[name] = groups
            if aggregate.attribute is None:
                scheme[name] = None  # count(*) is born plaintext
                continue
            agg_scheme = child.scheme.get(aggregate.attribute)
            scheme[name] = agg_scheme
            if agg_scheme is EncryptionScheme.PAILLIER and \
                    aggregate.function in (AggregateFunction.SUM,
                                           AggregateFunction.AVG):
                cpu += child.rows * factors.PAILLIER_ADD_SECONDS
        estimate = NodeEstimate(
            rows=groups,
            plain_width=widths,
            ndv=ndv,
            scheme=scheme,
            cpu_seconds=cpu,
        )
        estimate.io_bytes = child.output_bytes + estimate.output_bytes
        return estimate

    def _estimate_udf(self, node: Udf, child: NodeEstimate) -> NodeEstimate:
        widths = {a: w for a, w in child.plain_width.items()
                  if a not in node.inputs or a == node.output}
        widths[node.output] = 8
        ndv = {a: n for a, n in child.ndv.items() if a in widths}
        ndv[node.output] = child.rows
        scheme = {a: s for a, s in child.scheme.items() if a in widths}
        estimate = NodeEstimate(
            rows=child.rows,
            plain_width=widths,
            ndv=ndv,
            scheme=scheme,
            cpu_seconds=child.rows * factors.UDF_SECONDS_PER_ROW,
        )
        estimate.io_bytes = child.output_bytes + estimate.output_bytes
        return estimate

    def _estimate_crypto(self, node: Encrypt | Decrypt, child: NodeEstimate,
                         encrypting: bool) -> NodeEstimate:
        scheme_map = dict(child.scheme)
        cpu = 0.0
        # Sorted: a float sum over a frozenset would follow string hashing.
        for attribute in sorted(node.attributes):
            if encrypting:
                scheme = self.scheme_for(attribute)
                scheme_map[attribute] = scheme
                cpu += child.rows * factors.ENCRYPT_SECONDS_PER_VALUE[scheme]
            else:
                scheme = scheme_map.get(attribute) \
                    or self.scheme_for(attribute)
                scheme_map[attribute] = None
                cpu += child.rows * factors.DECRYPT_SECONDS_PER_VALUE[scheme]
        estimate = NodeEstimate(
            rows=child.rows,
            plain_width=dict(child.plain_width),
            ndv=dict(child.ndv),
            scheme=scheme_map,
            cpu_seconds=cpu,
        )
        estimate.io_bytes = child.output_bytes + estimate.output_bytes
        return estimate
