#!/usr/bin/env python
"""Kill matrix: which tests notice when one safety check is removed.

Each :class:`Mutant` names one enforcement site as ``(file, exact old
text, new text)``.  For every mutant asked for, ``src/`` is copied to a
temporary directory, the one replacement is made in the copy, and the
given test directories run against the copy (``PYTHONPATH`` points at
it; the working tree is never touched).  The failing test ids are the
mutant's *killers*; a mutant with none survived, and the check it
removed is either untested or unnecessary (ROADMAP item 2 decides
which).  Run it on a green tree — a test that fails unmutated would be
counted as a killer of everything::

    python scripts/kill_matrix.py --list
    python scripts/kill_matrix.py stand-in-may-run-anything
    python scripts/kill_matrix.py --all tests/distributed tests/properties

Test directories default to ``tests`` (≈37 s per mutant, so this is a
tool, not a CI step).  ``benchmarks/e2e/test_harness.py`` puts the
repository's own ``src/`` first on ``sys.path`` and so cannot judge a
mutant.  The committed result is ``tests/KILL_MATRIX.md``;
``tests/test_kill_matrix.py`` keeps every ``old`` text findable.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


class Mutant(NamedTuple):
    name: str
    #: Path under ``src/``.
    file: str
    #: Must occur exactly once in ``file``.
    old: str
    new: str
    what: str


ENFORCEMENT = "repro/distributed/enforcement.py"
RUNTIME = "repro/distributed/runtime.py"
EXECUTOR = "repro/engine/executor.py"
VISIBILITY = "repro/core/visibility.py"

MUTANTS = (
    # The run-time enforcement sites (PR 21).
    Mutant("check-values-returns", ENFORCEMENT,
           "    for position, column in enumerate(table.columns):\n",
           "    return\n"
           "    for position, column in enumerate(table.columns):\n",
           "check_values accepts every table"),
    Mutant("receive-skips-check-values", RUNTIME,
           "        context.trace.rows_transferred += len(table)\n"
           "        check_values(view, table)\n",
           "        context.trace.rows_transferred += len(table)\n",
           "_receive_input no longer looks at what a subject is handed"),
    Mutant("check-profile-never-raises", ENFORCEMENT,
           "    check = check_relation(view, profile)\n"
           "    if not check.authorized:\n",
           "    check = check_relation(view, profile)\n"
           "    if False:\n",
           "check_profile accepts every relation"),
    Mutant("evaluate-skips-check-profile", RUNTIME,
           "            if not isinstance(checked, BaseRelationNode):\n",
           "            if False:\n",
           "_evaluate no longer checks Def. 4.1 on what a subject produces"),
    Mutant("delivery-skips-check-values", RUNTIME,
           "        check_values(root_view, result)\n",
           "",
           "the result's columns are not checked against the user's view"),
    Mutant("delivery-skips-check-profile", RUNTIME,
           "        check_profile(\n"
           "            root_view, context.profiles[extended.plan.root], "
           "\"query result\")\n",
           "",
           "the root profile is not checked against the user's view"),
    # The two preconditions of filter-before-encrypt (PR 22).
    Mutant("filter-ahead-of-a-received-encrypt", EXECUTOR,
           "isinstance(node.left, Encrypt) \\\n"
           "            and id(node.left) not in received:\n",
           "isinstance(node.left, Encrypt):\n",
           "a selection runs ahead of an Encrypt another subject sent"),
    Mutant("filter-first-on-sealed-columns", EXECUTOR,
           "            if not any({EncryptedValue, EncryptedAggregate}\n",
           "            if True or not any("
           "{EncryptedValue, EncryptedAggregate}\n",
           "a selection runs first even when a predicate column arrived "
           "sealed"),
    # The stand-in rule (PR 24).
    Mutant("subject-accepts-the-stand-in-prefix",
           "repro/core/authorization.py",
           "        if stands_in_for(self.name) is not None:\n",
           "        if False:\n",
           "a real subject may be named authority:<anything>"),
    Mutant("stand-in-may-run-anything", VISIBILITY,
           "    return (isinstance(node, Encrypt)\n"
           "            and isinstance(node.left, BaseRelationNode)\n"
           "            and node.left.relation.name == relation)\n",
           "    return True\n",
           "is_source_encryption holds for every node"),
    Mutant("verify-skips-every-stand-in", VISIBILITY,
           "            if not is_source_encryption(node, relation):\n",
           "            if False:\n",
           "verify_assignment exempts any authority: name, as it did "
           "before PR 24"),
    Mutant("keys-skip-every-stand-in", "repro/core/keys.py",
           "            if not is_source_encryption(node, relation):\n",
           "            if False:\n",
           "establish_keys hands a key to any authority: name, as it did "
           "before PR 24"),
)


def killers(mutant: Mutant, tests: list[str]) -> list[str]:
    """Ids of the tests in ``tests`` that fail with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="kill-matrix-") as scratch:
        copy = Path(scratch) / "src"
        shutil.copytree(SRC, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(
                f"{mutant.name}: old text occurs {text.count(mutant.old)} "
                f"times in {mutant.file}, expected exactly once")
        target.write_text(text.replace(mutant.old, mutant.new))
        finished = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE",
             "-p", "no:cacheprovider", *tests],
            cwd=REPO, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(copy),
                 "PYTHONDONTWRITEBYTECODE": "1"})
    if finished.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest could not run\n"
                         + finished.stdout + finished.stderr)
    return [line.split(" ", 1)[1].split(" - ")[0]
            for line in finished.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="MUTANT_OR_TEST_DIR",
                        help="mutant names, then test directories")
    parser.add_argument("--all", action="store_true",
                        help="run every mutant")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and exit")
    arguments = parser.parse_args()
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    if arguments.list:
        for mutant in MUTANTS:
            print(f"{mutant.name:38} {mutant.file}: {mutant.what}")
        return
    chosen = [by_name[name] for name in arguments.names if name in by_name]
    tests = [name for name in arguments.names if name not in by_name]
    if arguments.all:
        chosen = list(MUTANTS)
    if not chosen:
        parser.error("name a mutant (see --list) or pass --all")
    for mutant in chosen:
        failed = killers(mutant, tests or ["tests"])
        print(f"{mutant.name} ({mutant.file}: {mutant.what}) — "
              + (f"killed by {len(failed)}" if failed else "SURVIVED"),
              flush=True)
        for test_id in failed:
            print(f"    {test_id}")


if __name__ == "__main__":
    main()
