"""What one query did, as rows: the runtime's one record of a run.

The paper's guarantee is about what each subject *receives* (Def. 4.1 /
4.2 judge the relations a subject sees; §6 sends each subject
``[[q, keys] priU] pubS``), so the record keeps one row per delivery, in
the order the runtime made them:

* :class:`EnvelopeRow` — an envelope the user sealed for a subject: the
  fragment ids it carries, the names of the keys in its store and its
  length in bytes;
* :class:`TableRow` — a relation a subject was handed: the result of
  one fragment's root node fed to another fragment (or re-fed to the
  subject that took a lost fragment over), or the query's result handed
  to the user (``into`` is ``None``), with its column names, each
  column's stated representation (``Table.representations``) and its
  row count.

Every row carries a policy version: an envelope's is the version when
it was sealed, a table's that of the recipient's view which judged it.
A row holds names, the tuples the table already holds and the plan node
— never a table, bytes or key material — so keeping it costs one tuple.
The transfer counters are views of the rows, not fields of their own:
a message is an envelope or a table handed between fragments (the final
result adds rows, not a message).  Beside the rows the trace keeps what
each executor did (``nodes``, one row per plan node evaluated) and the
retry / failover bookkeeping of :mod:`repro.distributed.retry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

from repro.core.operators import PlanNode


class EnvelopeRow(NamedTuple):
    """An envelope the user sealed for ``recipient``."""

    sender: str
    recipient: str
    #: The sub-queries it carries, first one first.
    fragments: tuple[str, ...]
    #: Names of the keys in the store it delivers.
    keys: frozenset[str]
    bytes: int
    #: Policy version when it was sealed.
    version: int


class TableRow(NamedTuple):
    """The result of ``node``, which ``fragment`` produced at ``sender``,
    handed to ``recipient``: as an input of fragment ``into``, or as the
    query's result (``into`` is ``None``)."""

    fragment: str
    sender: str
    recipient: str
    into: str | None
    node: PlanNode
    columns: tuple[str, ...]
    #: One per column, as the table states it (``Table.representations``).
    representations: tuple
    #: Its row count.
    cardinality: int
    #: Policy version of the recipient's view that judged it.
    version: int


@dataclass
class FailoverEvent:
    """One mid-query fragment re-dispatch, for tracing and audit.

    ``repaired_assignment`` is the full extended-plan assignment after
    the takeover (the mapping :func:`verify_assignment` approved), so
    auditors can re-verify independently that the re-dispatch never
    widened visibility.
    """

    fragment_id: str
    failed_subject: str
    replacement: str
    attempts: int
    seconds: float
    repaired_assignment: dict[PlanNode, str] = field(default_factory=dict)


@dataclass
class ExecutionTrace:
    """What moved where during one run; folded with :meth:`absorb`, the
    one record of every run of a query, which every counter reads."""

    #: One row per envelope sealed and per table handed over, in order.
    deliveries: list[EnvelopeRow | TableRow] = field(default_factory=list)
    #: Every (fragment id, subject) requested, in call order, cache hits
    #: and failover takeovers included.
    fragments_run: list[tuple[str, str]] = field(default_factory=list)
    fragment_cache_hits: int = 0
    #: Fragment execution attempts (first tries + retries; cache hits
    #: excluded — they never touch a provider).
    attempts: int = 0
    #: Transient-fault retries on the same subject.
    retries: int = 0
    #: Circuit-breaker trips (including permanent provider deaths).
    breaker_trips: int = 0
    #: Mid-query fragment re-dispatches, in completion order.
    failovers: list[FailoverEvent] = field(default_factory=list)
    #: (subject, seconds) per successful fragment execution, the wall
    #: time the health registry's latency EWMA is fed.
    executions: list[tuple[str, float]] = field(default_factory=list)
    #: (fragment id, subject, *row) per executor row (``Executor.record``)
    #: of every attempt that returned; a fragment-cache hit adds none.
    nodes: list[tuple] = field(default_factory=list)

    @property
    def messages(self) -> int:
        """Envelopes sealed (one per subject, plus one per failover
        reseal) and tables handed between fragments."""
        return sum([isinstance(row, EnvelopeRow) or row.into is not None
                    for row in self.deliveries])

    @property
    def envelope_bytes(self) -> int:
        """Total size of the envelopes sealed."""
        return sum([row.bytes for row in self.deliveries
                    if isinstance(row, EnvelopeRow)])

    @property
    def rows_transferred(self) -> int:
        """Rows of every table handed over, the final result's included."""
        return sum([row.cardinality for row in self.deliveries
                    if isinstance(row, TableRow)])

    def absorb(self, later: "ExecutionTrace") -> None:
        """Append a later run of the same query: counts add, lists join."""
        for name in (f.name for f in fields(self)):
            setattr(self, name, getattr(self, name) + getattr(later, name))
