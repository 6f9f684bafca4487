"""The extended plan evaluated exactly as written, one node at a time.

``Executor.execute`` (and the runtime's ``_evaluate``) may run a
selection or projection before the Encrypt below it
(``repro.core.plan.physical_step``).  This is the order they had before
that rule: every operator through the public ``Executor.execute_node``,
children first — whole-column Encrypt, then the selection on its tokens
or, §5 note 2, on what it decrypts again.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.operators import PlanNode
from repro.core.plan import QueryPlan
from repro.engine.executor import Executor
from repro.engine.table import Table


def tables_in_plan_order(executor: Executor,
                         plan: QueryPlan) -> dict[PlanNode, Table]:
    """Every node's result table, children first."""
    tables: dict[PlanNode, Table] = {}
    for node in plan.postorder():
        tables[node] = executor.execute_node(
            node, [tables[child] for child in node.children])
    return tables


def execute_in_plan_order(executor: Executor, node: PlanNode,
                          received: Mapping[PlanNode, Table] | None = None,
                          ) -> Table:
    """``node``'s table; a node ``received`` maps is that table (another
    fragment's), and nothing below it runs."""
    if received is not None and node in received:
        return received[node]
    return executor.execute_node(node, [
        execute_in_plan_order(executor, child, received)
        for child in node.children])
