"""The extended plan evaluated exactly as written, one node at a time.

``Executor.execute`` (and the runtime's ``_evaluate``) may run a
selection before the Encrypt below it (``engine/executor.py``,
``physical_step``).  This is the order they had before that rule: every
operator through the public ``Executor.execute_node``, children first —
whole-column Encrypt, then the selection on its tokens or, §5 note 2,
on what it decrypts again.
"""

from __future__ import annotations

from repro.core.operators import PlanNode
from repro.engine.executor import Executor
from repro.engine.table import Table


def execute_in_plan_order(executor: Executor, node: PlanNode) -> Table:
    return executor.execute_node(
        node, [execute_in_plan_order(executor, child)
               for child in node.children])
