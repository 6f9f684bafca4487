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

Test directories default to ``tests`` (≈1 min per mutant on a 2-CPU
host, ≈33 min for ``--all``, so this is a tool, not a CI step).
``benchmarks/e2e/test_harness.py`` puts the repository's own ``src/``
first on ``sys.path`` and so cannot judge a mutant.  The committed result is ``tests/KILL_MATRIX.md``;
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
PLAN = "repro/core/plan.py"
VISIBILITY = "repro/core/visibility.py"
ATTRSETS = "repro/core/attrsets.py"
MESSAGES = "repro/distributed/messages.py"
RSA = "repro/crypto/rsa.py"
QUOTAS = "repro/gateway/quotas.py"
CODEC = "repro/engine/codec.py"
EXPRESSIONS = "repro/engine/expressions.py"
SEARCH = "repro/core/search.py"
ASSIGNMENT = "repro/core/assignment.py"

MUTANTS = (
    # The run-time enforcement sites (PR 21).
    Mutant("check-values-returns", ENFORCEMENT,
           "    for column, kind in zip(table.columns, "
           "table.representations):\n",
           "    return\n"
           "    for column, kind in zip(table.columns, "
           "table.representations):\n",
           "check_values accepts every table"),
    Mutant("receive-skips-check-values", RUNTIME,
           "        check_values(view, table)\n",
           "        if consumer is None:\n"
           "            check_values(view, table)\n",
           "_receive_input no longer looks at what a fragment is handed"),
    Mutant("check-profile-never-raises", ENFORCEMENT,
           "    if not relation_authorized(view_masks, profile_masks):\n",
           "    if not relation_authorized(view_masks, profile_masks) "
           "and False:\n",
           "check_profile accepts every relation"),
    Mutant("evaluate-skips-check-profile", RUNTIME,
           "            if not isinstance(checked, BaseRelationNode):\n",
           "            if False:\n",
           "_evaluate no longer checks Def. 4.1 on what a subject produces"),
    Mutant("delivery-skips-check-values", RUNTIME,
           "        check_values(view, table)\n",
           "        if consumer is not None:\n"
           "            check_values(view, table)\n",
           "the result's columns are not checked against the user's view"),
    Mutant("delivery-skips-check-profile", RUNTIME,
           "        check_profile(root_view, extended.plan, "
           "extended.plan.root,\n"
           "                      \"query result\")\n",
           "",
           "the root profile is not checked against the user's view"),
    # The delivery record (ROADMAP 22(a)): every table handed over is a row.
    Mutant("receipt-leaves-no-row", RUNTIME,
           "        context.trace.deliveries.append(tuple.__new__(TableRow, (\n",
           "        (tuple.__new__(TableRow, (\n",
           "_receive_input hands a table over and records no row"),
    # The one statement of Def. 4.1: the planner, verify_assignment and
    # check_profile all read it.
    Mutant("relation-authorized-skips-condition-3", ATTRSETS,
           "    for eq_class in profile.eq:\n"
           "        if eq_class & ~plaintext and eq_class & ~encrypted:\n"
           "            return False\n",
           "",
           "relation_authorized never checks uniform visibility over an "
           "equivalence class"),
    # The two preconditions of filter-before-encrypt (PR 22), stated on
    # the extended plan.
    Mutant("filter-ahead-of-a-received-encrypt", PLAN,
           "            or not isinstance(top.left, Encrypt) "
           "or top.left not in runs:\n",
           "            or not isinstance(top.left, Encrypt):\n",
           "a selection or projection runs ahead of an Encrypt another "
           "subject sent"),
    Mutant("filter-first-on-sealed-columns", PLAN,
           "    if isinstance(top, Selection) "
           "and not top.predicate.attributes() \\\n",
           "    if False and isinstance(top, Selection) "
           "and not top.predicate.attributes() \\\n",
           "a selection runs first even when a predicate column arrived "
           "sealed"),
    # The fused seal: π runs first, the Encrypt seals what π kept.
    Mutant("fused-encrypt-skips-a-kept-column", EXECUTOR,
           "            if attribute not in child.columns:  "
           "# a π that ran first dropped it\n",
           "            if attribute not in child.columns \\\n"
           "                    or not node.attributes <= set(child.columns):"
           "\n",
           "an Encrypt whose π ran first leaves the columns π kept in "
           "plaintext"),
    # A column states one representation, read where it is born.
    Mutant("mixed-column", "repro/engine/values.py",
           "    if len(found) == 1:\n"
           "        return found.pop()\n",
           "    first = next(cell for cell in cells if cell is not None)\n"
           "    if first.__class__ is EncryptedValue:\n"
           "        return first.key_name, first.scheme\n"
           "    if first.__class__ is EncryptedAggregate:\n"
           "        return first.key_name, AGGREGATE\n"
           "    return PLAINTEXT\n",
           "a column's birth site keeps the first representation it sees "
           "and accepts a second"),
    Mutant("sealed-column-unchecked", EXECUTOR,
           "            table = table.with_column(attribute, sealed)\n"
           "            kind = table.representation(attribute)\n",
           "            table = table._swapped(\n"
           "                table.column_position(attribute),\n"
           "                tuple(getattr(sealed, \"tokens\", sealed)),\n"
           "                (material.name, material.scheme))\n"
           "            kind = None\n",
           "Encrypt states the material's key and scheme for the column "
           "without reading what encrypt_column returned"),
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
    # The policy's per-version view memo.
    Mutant("view-memo-survives-mutation", "repro/core/authorization.py",
           "        self._views.clear()\n",
           "",
           "Policy.view serves a view memoised before a grant or revoke"),
    # Verify-before-act on a delivered envelope, and the gateway's
    # refusal before any planning work is spent.
    Mutant("open-envelope-skips-signature", MESSAGES,
           "    if not sender_public.verify(body, signature):\n",
           "    if False:\n",
           "a subject acts on an envelope whatever signed it"),
    Mutant("payload-carries-everything", MESSAGES,
           "        return fragment_id == self.fragment_id \\\n"
           "            or any(fragment_id == other "
           "for other, _ in self.more)\n",
           "        return True\n",
           "a subject runs a sub-query its envelope did not deliver"),
    # The envelope session: one per sender key, never trusted past the
    # body's tag.
    Mutant("session-shared-across-senders", RSA,
           "        sessions = self._sessions\n",
           "        sessions = globals().setdefault(\"_by_recipient\", {})\n",
           "the session table is keyed by recipient only, across senders"),
    Mutant("unwrap-memo-skips-body-tag", RSA,
           "        else:\n"
           "            plaintext = cipher.decrypt(body)\n",
           "        else:\n"
           "            plaintext = primitives.decode_value("
           "primitives.xor_bytes(\n"
           "                body[16:-12], primitives.keystream(\n"
           "                    cipher._enc_key, body[:16], "
           "len(body) - 28)))\n",
           "a session served from the unwrap memo opens without its tag "
           "check"),
    Mutant("verify-memo-ignores-signature", RSA,
           "        if self._verified.get(digest) == signature:\n",
           "        if digest in self._verified:\n",
           "a public key accepts any signature over a message it verified "
           "before"),
    # The one memo bound: a re-store (two threads that both missed a key)
    # replaces its entry and evicts nothing.
    Mutant("memo-evicts-on-replace", "repro/core/cache.py",
           "            if key not in self and len(self) >= self.maxsize:\n",
           "            if len(self) >= self.maxsize:\n",
           "Memo.store drops the oldest entry even when the key is already "
           "present"),
    # The cancellation checkpoint every query passes, budgeted or not.
    Mutant("check-ignores-cancel", "repro/core/budget.py",
           "        if self._cancelled:\n"
           "            raise QueryCancelledError(\n",
           "        if False:\n"
           "            raise QueryCancelledError(\n",
           "CancellationToken.check never raises QueryCancelledError, so a "
           "cancel stops no query"),
    Mutant("quota-check-admits-everything", QUOTAS,
           "        spent = ledger.spend_usd(self.tenant)\n"
           "        if not self.account.admissible:\n",
           "        return\n"
           "        spent = ledger.spend_usd(self.tenant)\n"
           "        if not self.account.admissible:\n",
           "TenantQuota.check refuses no tenant, out of credit or over "
           "its rate"),
    # Column crypto: what a subject opens is what was sealed for it.
    Mutant("column-open-skips-tag", "repro/crypto/symmetric.py",
           "    if not primitives.constant_time_equal(\n"
           "            ciphertext[-_TAG_LEN:], "
           "mac(ciphertext[:-_TAG_LEN])[:_TAG_LEN]):\n",
           "    if False:\n",
           "a symmetric open, per value or bulk, skips its tag check"),
    Mutant("decrypt-column-any-key", CODEC,
           "        if key_name != name:\n",
           "        if False:\n",
           "decrypt_column opens a cell that names another key"),
    Mutant("open-accepts-any-scheme", CODEC,
           "        if tag is not scheme:\n",
           "        if False:\n",
           "decrypt_column opens a cell tagged with another scheme "
           "than its key's"),
    Mutant("fragment-hit-ignores-keys", "repro/distributed/fragcache.py",
           "                if (stored_signature == signature\n",
           "                if (True\n",
           "a cached fragment result is served under other key material"),
    Mutant("keyring-ignores-key-bytes", MESSAGES,
           "    keystore = None if keyring is None "
           "else keyring.get(signature)\n"
           "    if keystore is None:\n"
           "        keystore = _decode_keys(reader)\n"
           "        if reader.at != len(blob):\n"
           "            raise DispatchError(\"malformed payload: "
           "trailing bytes\")\n"
           "        if keyring is not None:\n"
           "            keyring.put(signature, keystore)\n",
           "    decoded = _decode_keys(reader)\n"
           "    names = repr(sorted((m.name, sorted(m.query_key.attributes))"
           "\n                        for m in map(decoded.material, "
           "decoded.names())))\n"
           "    keystore = None if keyring is None else keyring.get(names)\n"
           "    if keystore is None:\n"
           "        keystore = decoded\n"
           "        if reader.at != len(blob):\n"
           "            raise DispatchError(\"malformed payload: "
           "trailing bytes\")\n"
           "        if keyring is not None:\n"
           "            keyring.put(names, keystore)\n",
           "a re-keyed run is handed the store of the keys it had before "
           "(the ring keyed on key names and attributes alone)"),
    # Warm dispatch: a body is remembered only once it verified, and
    # framed only for the key set it carries.
    Mutant("opened-body-kept-before-verify", MESSAGES,
           "    if not sender_public.verify(body, signature):\n"
           "        raise DispatchError(\"envelope signature verification "
           "failed\")\n"
           "    payload = decode_payload(body, keyring)\n"
           "    if keyring is not None:\n"
           "        keyring.put(opened, payload)\n",
           "    payload = decode_payload(body, keyring)\n"
           "    if keyring is not None:\n"
           "        keyring.put(opened, payload)\n"
           "    if not sender_public.verify(body, signature):\n"
           "        raise DispatchError(\"envelope signature verification "
           "failed\")\n",
           "the keyring stores an opened body before its signature "
           "verified, so a refused envelope sent again is accepted"),
    Mutant("framed-body-outlives-its-keys", MESSAGES,
           "    bodies = payload.keystore.bodies\n",
           "    bodies = sender_private._signed\n",
           "the sender keeps framed bodies on the user's key, keyed without "
           "the key set, so a re-key re-sends the old keys"),
    # The two shortcuts of the whole-column kernels.
    Mutant("unique-probe-drops-a-duplicate-build-key", EXECUTOR,
           "    if len(index) == len(build_keys):\n",
           "    if True:\n",
           "_hash_join takes the one-lookup probe on duplicate build keys, "
           "so each key keeps only its last build row"),
    Mutant("null-free-check-skipped", EXPRESSIONS,
           "            if op is not ComparisonOp.NEQ or None not in cells:\n",
           "            if True:\n",
           "_column_mask maps operator.ne over a column holding a NULL, "
           "so <> keeps the rows whose operand is NULL"),
    # The §6 DP's dominated subjects: not a safety site, an exactness one.
    Mutant("dominance-ignores-sort-order", SEARCH,
           "                dominator = next((other for other in "
           "group[:index]\n",
           "                dominator = next((other for other in group "
           "if other != name\n",
           "a subject's row is skipped for a group-mate that sorts after "
           "it, so a tie goes to the later subject (or to neither)"),
    Mutant("dominance-ignores-a-rate", SEARCH,
           "            rates[name] = (r.cpu_usd_per_second, "
           "r.io_usd_per_gb,\n"
           "                           r.net_usd_per_gb)\n",
           "            rates[name] = (r.cpu_usd_per_second, "
           "r.io_usd_per_gb)\n",
           "dominance compares cpu and io only, so a subject that ships "
           "cheaper loses its row to a group-mate with a dearer net rate"),
    # A re-plan that lands on the evicted plan keeps its dispatch plan.
    Mutant("adoption-ignores-extension", ASSIGNMENT,
           "        if not (self.assignment == predecessor.assignment\n"
           "                and _pairs(self.extended) == "
           "_pairs(predecessor.extended)\n"
           "                and self.keys == predecessor.keys):\n",
           "        if not (self.assignment == predecessor.assignment):\n",
           "a re-plan adopts the evicted plan on an equal assignment "
           "alone, keeping an extension and keys the new policy changed"),
    Mutant("adoption-reuses-key-material", ASSIGNMENT,
           "            self.derived.append((None, "
           "predecessor.derived[0][1]))\n",
           "            self.derived[:] = predecessor.derived\n",
           "an adopting re-plan takes the whole derived cell, so the "
           "evicted result's key material outlives its eviction"),
    # Mixed comparison operands are made uniform (§3.2) before Def. 4.1.
    Mutant("harmonise-returns-its-input", "repro/core/extension.py",
           "    groups = node.uniform_groups()\n"
           "    if not groups:\n",
           "    groups = node.uniform_groups()\n"
           "    if True:\n",
           "_harmonise_forms returns its operands, so a comparison whose "
           "sides arrive in two representations stays mixed"),
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
