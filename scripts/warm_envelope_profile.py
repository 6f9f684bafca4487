#!/usr/bin/env python
"""Per template of a warm UAPenc query: the envelopes sealed and opened,
the framed body bytes they carry, the µs spent sealing and opening them,
and how many opens the recipient's keyring answered from a body it
authenticated before (``body hits``: an open that called no verify).

Builds the UAPenc TPC-H service at scale 0.002 on dataset 107 and runs
the 17 SQL templates once, so plans, assignments, keys, fragment results
and every keyring are warm; then each round runs the 17 again.  The
runtime's ``seal_envelope`` / ``open_envelope`` (the names it calls
them by, :mod:`repro.distributed.runtime`) are rebound to time each
call with ``time.perf_counter`` on the calling thread, and
``RsaPublicKey.verify`` to count the signatures actually verified.  A
warm envelope pays the hybrid encryption and its tag check and nothing
else (:mod:`repro.distributed.messages`, *Warm dispatch*), so on a warm
round body hits equal opens.  Columns are per round.
Usage: ``PYTHONPATH=src python scripts/warm_envelope_profile.py [ROUNDS]``
"""
import struct
import sys
import time
from collections import defaultdict

from repro.crypto.rsa import RsaPublicKey
from repro.distributed import runtime as runtime_module
from repro.service import QueryService
from repro.tpch import (
    AUTHORITY_TABLES, TPCH_UDFS, all_queries, build_tpch_schema, generate,
    scenario)


def main(rounds: int = 3) -> None:
    schema = build_tpch_schema(0.002)
    data = generate(0.002, seed=107)
    tables = {authority: {name: data.table(name) for name in names}
              for authority, names in AUTHORITY_TABLES.items()}
    setting = scenario("UAPenc", schema)
    service = QueryService(schema, setting.policy, setting.subjects,
                           setting.owners, tables, user=setting.user,
                           udfs=TPCH_UDFS)
    sqls = {q.number: q.sql for q in all_queries() if q.sql is not None}
    for sql in sqls.values():  # everything warm, every body remembered
        service.execute(sql)
    # cell: sealed, opened, body bytes, seal seconds, open seconds,
    # verifies
    cells = defaultdict(lambda: [0, 0, 0, 0.0, 0.0, 0])
    running = [None]  # the template now running
    seal, open_ = runtime_module.seal_envelope, runtime_module.open_envelope
    verify = RsaPublicKey.verify

    def timed_seal(payload, sender_private, recipient_public):
        start = time.perf_counter()
        blob = seal(payload, sender_private, recipient_public)
        cell = cells[running[0]]
        cell[3] += time.perf_counter() - start
        cell[0] += 1
        return blob

    def timed_open(blob, recipient_private, sender_public, keyring=None):
        start = time.perf_counter()
        payload = open_(blob, recipient_private, sender_public, keyring)
        cell = cells[running[0]]
        cell[4] += time.perf_counter() - start
        cell[1] += 1
        framed = recipient_private.decrypt(blob)
        cell[2] += struct.unpack(">I", framed[:4])[0]
        return payload

    def counted_verify(self, message, signature):
        cells[running[0]][5] += 1
        return verify(self, message, signature)

    # Rebound for the life of the process: this script exits when done.
    runtime_module.seal_envelope = timed_seal
    runtime_module.open_envelope = timed_open
    RsaPublicKey.verify = counted_verify
    for _ in range(rounds):
        for number, sql in sqls.items():
            running[0] = number
            service.execute(sql)
    print("template  sealed  opened  body bytes  seal µs  open µs"
          "  body hits  (per round)")
    totals = [0.0] * 6
    for number, cell in sorted(cells.items()):
        totals = [t + c for t, c in zip(totals, cell)]
        print(row(f"Q{number}", cell, rounds))
    print(row("all", totals, rounds))


def row(template: str, cell, rounds: int) -> str:
    sealed, opened, body_bytes, seal_s, open_s, verifies = (
        value / rounds for value in cell)
    return (f"{template:9}{sealed:7g}{opened:8g}{body_bytes:12g}"
            f"{1e6 * seal_s:9.1f}{1e6 * open_s:9.1f}"
            f"{opened - verifies:11g}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
