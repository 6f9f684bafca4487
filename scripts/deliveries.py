#!/usr/bin/env python
"""What each subject received when one TPC-H template ran: the run's
delivery rows (``ExecutionTrace.deliveries``), one line each.

Builds the service for SCENARIO (``UA``, ``UAPenc`` or ``UAPmix``;
default ``UAPenc``) on the TPC-H data at scale 0.002, dataset 107, runs
template TEMPLATE (a number of one of the 17 SQL templates, default 16,
where provider P1 joins and groups what two authorities sealed)
once and prints every row in the order the runtime made it:

* an envelope: ``sender → recipient``, the sub-queries it carries, the
  key names in its store, its bytes;
* a table: ``sender → recipient``, the producing fragment and the one it
  feeds (``result`` for the answer handed to the user), the plan node,
  ``column:representation`` per column (``plain``, ``scheme(key)``), its
  rows;

each with the policy version it was judged at.  Nothing is rebound: the
rows are what the runtime records on every run.
Usage: ``PYTHONPATH=src python scripts/deliveries.py [TEMPLATE] [SCENARIO]``
"""
import sys

from repro.distributed import EnvelopeRow
from repro.engine.values import PLAINTEXT
from repro.service import QueryService
from repro.tpch import (
    AUTHORITY_TABLES, TPCH_UDFS, build_tpch_schema, generate, query,
    scenario)


def representation(kind: object) -> str:
    if kind is None:
        return "empty"
    if kind == PLAINTEXT:
        return "plain"
    key, scheme = kind
    return f"{getattr(scheme, 'value', scheme)}({key})"


def describe(row) -> str:
    route = f"{row.sender:>6} → {row.recipient:<6}"
    if isinstance(row, EnvelopeRow):
        return (f"{route} envelope {','.join(row.fragments)}  keys "
                f"{','.join(sorted(row.keys)) or '-'}  {row.bytes} B  "
                f"v{row.version}")
    columns = " ".join(f"{column}:{representation(kind)}" for column, kind
                       in zip(row.columns, row.representations))
    return (f"{route} {row.fragment} → {row.into or 'result'}  "
            f"{row.node.label()}  {columns}  {row.cardinality} rows  "
            f"v{row.version}")


def main(number: int = 16, name: str = "UAPenc") -> None:
    schema = build_tpch_schema(0.002)
    data = generate(0.002, seed=107)
    tables = {authority: {relation: data.table(relation)
                          for relation in relations}
              for authority, relations in AUTHORITY_TABLES.items()}
    setting = scenario(name, schema)
    service = QueryService(schema, setting.policy, setting.subjects,
                           setting.owners, tables, user=setting.user,
                           udfs=TPCH_UDFS)
    outcome = service.execute(query(number).sql)
    print(f"Q{number} under {name}: {len(outcome.trace.deliveries)} "
          f"deliveries, {outcome.trace.messages} messages, "
          f"{outcome.trace.envelope_bytes} envelope bytes, "
          f"{outcome.trace.rows_transferred} rows")
    for row in outcome.trace.deliveries:
        print(describe(row))


if __name__ == "__main__":
    main(int(sys.argv[1].lstrip("Qq")) if len(sys.argv) > 1 else 16,
         sys.argv[2] if len(sys.argv) > 2 else "UAPenc")
