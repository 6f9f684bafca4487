#!/usr/bin/env python
"""Reach map: which lines of ``src/repro`` tier-1 and the benchmark run.

Two commands are traced, and every Python process they start with them:

* tier-1, ``python -m pytest -q``;
* the benchmark, ``python3 benchmarks/e2e/run.py --workload all
  --seconds 2`` (one fresh interpreter per workload).

A temporary ``sitecustomize.py`` first on ``PYTHONPATH`` installs a line
tracer (``sys.settrace`` and ``threading.settrace``) restricted to
``src/repro`` in every interpreter that starts, spawned ``WorkerPool``
processes included, and writes what it saw when the interpreter exits.
A process killed on purpose (the pool tests SIGKILL workers) writes
nothing, and a subprocess started with its own ``PYTHONPATH`` is not
traced.  Executable lines are the ``co_lines()`` of every code object
compiled from a module.  The result is a Markdown report: per module
the lines run by both commands, by tier-1 only, by the benchmark only
and by neither, then every named function neither command called::

    python scripts/reach.py                  # writes docs/reach.md

Standard library only.  Tracing makes both commands several times
slower (≈5 min together on a 2-CPU host), so this is a tool, not a CI
step; a test that asserts on wall time may fail under it, and the report
says how each command ended.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
REPORT = REPO / "docs" / "reach.md"
#: Timed seconds per benchmark workload; the report's counts hold for it.
SECONDS = "2"

#: Run in every traced interpreter, after the lines that set ``_ROOT``
#: (the traced package) and ``_OUT`` (where the dump goes).
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading, time

_lines = {}
_calls = {}


def _line(frame, event, arg):
    if event == "line":
        _lines[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    filename = code.co_filename
    if not filename.startswith(_ROOT):
        return None
    if filename not in _lines:
        _lines[filename] = set()
        _calls[filename] = set()
    _lines[filename].add(frame.f_lineno)
    _calls[filename].add(code.co_firstlineno)
    return _line


def _dump():
    sys.settrace(None)
    name = f"{os.getpid()}-{time.time_ns()}.json"
    with open(os.path.join(_OUT, name), "w") as out:
        json.dump({filename: [sorted(lines), sorted(_calls[filename])]
                   for filename, lines in _lines.items()}, out)


atexit.register(_dump)
threading.settrace(_call)
sys.settrace(_call)
'''

COMMANDS = {
    "tier-1": [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
    "benchmark": [sys.executable, "benchmarks/e2e/run.py", "--workload",
                  "all", "--seconds", SECONDS],
}

#: Modules only tier-1 reaches on purpose until the benchmark grows the
#: workloads that would (ROADMAP item 7: ``mixed_schemes`` for the
#: schemes and the pool, ``faulted_gateway`` for recovery).
WAITING = {
    "crypto/ope.py": "OPE: no executing workload plans an order comparison",
    "crypto/paillier.py": "Paillier: decrypt and aggregate paths beyond the "
                          "warm keys",
    "parallel/pool.py": "the pool: every workload runs at workers=0",
    "distributed/runtime.py": "failover: no workload injects a fault",
    "distributed/health.py": "the breaker: no workload injects a fault",
    "distributed/faults.py": "the fault injector itself",
    "distributed/retry.py": "retries: no workload injects a fault",
}


def trace(label: str, command: list[str], scratch: Path) -> tuple[Path, str]:
    """Run ``command`` traced; returns the dump directory and how it ended
    (pytest's summary line, or the benchmark's op counts)."""
    out = scratch / label
    out.mkdir()
    site = scratch / f"{label}-site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        f"_ROOT = {str(PACKAGE) + os.sep!r}\n_OUT = {str(out)!r}\n"
        + SITECUSTOMIZE)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(site), str(REPO / "src")]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    print(f"tracing {label}: {' '.join(command)}", flush=True)
    finished = subprocess.run(command, cwd=REPO, env=env,
                              capture_output=True, text=True)
    tail = (finished.stdout.strip().splitlines() or [""])[-1]
    tail = re.sub(r" in [\d.]+s\b.*$", "", tail)  # drop pytest's timing
    summary = scratch / "benchmark.json"
    if label == "benchmark" and summary.exists():
        runs = [part for workload in json.loads(summary.read_text()).values()
                for part in workload.values()]
        tail = (f"{sum(run['attempted'] for run in runs)} ops in "
                f"{len(runs)} workloads, "
                f"{sum(run['failed'] for run in runs)} failed or wrong")
    return out, f"exit {finished.returncode}: {tail}"


def merged(directory: Path) -> tuple[dict[str, set[int]], dict[str, set[int]]]:
    """Executed lines and called code objects (by first line) per module."""
    lines: dict[str, set[int]] = defaultdict(set)
    calls: dict[str, set[int]] = defaultdict(set)
    for dump in directory.glob("*.json"):
        for filename, (hit, called) in json.loads(dump.read_text()).items():
            module = Path(filename).resolve().relative_to(PACKAGE).as_posix()
            lines[module].update(hit)
            calls[module].update(called)
    return lines, calls


def code_objects(path: Path) -> list[types.CodeType]:
    """Every code object compiled from ``path``, module body first."""
    pending = [compile(path.read_text(), str(path), "exec")]
    found = []
    while pending:
        code = pending.pop()
        found.append(code)
        pending.extend(const for const in code.co_consts
                       if isinstance(const, types.CodeType))
    return found


def report(runs: dict[str, tuple[Path, str]]) -> str:
    (t_lines, t_calls), (b_lines, b_calls) = (
        merged(runs[label][0]) for label in ("tier-1", "benchmark"))
    rows, never, tier1_only = [], [], {}
    totals = [0] * 5
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        codes = code_objects(path)
        executable = {line for code in codes
                      for _, _, line in code.co_lines() if line}
        tier1, bench = t_lines[module], b_lines[module]
        counts = (len(executable),
                  len(executable & tier1 & bench),
                  len(executable & tier1 - bench),
                  len(executable & bench - tier1),
                  len(executable - tier1 - bench))
        totals = [a + b for a, b in zip(totals, counts)]
        tier1_only[module] = counts[2]
        rows.append(f"| `{module}` | " + " | ".join(map(str, counts)) + " |")
        called = t_calls[module] | b_calls[module]
        unrun = sorted(
            (code.co_firstlineno, code.co_qualname) for code in codes
            if code.co_name.isidentifier() and code.co_name != "<module>"
            and code.co_firstlineno not in called)
        if unrun:
            never.append(f"- `{module}`: " + ", ".join(
                f"`{name}` ({line})" for line, name in unrun))
    waiting = [f"| `{module}` | {tier1_only[module]} | {why} |"
               for module, why in WAITING.items()]
    total = totals[0]
    lines = [
        "# Reach map — what tier-1 and the benchmark execute in `src/repro`",
        "",
        "Generated by `python scripts/reach.py`; regenerate it in the change "
        "that moves it. Executable lines are the `co_lines()` of every code "
        "object of a module; a line counts as run when a traced process "
        "reported it. Tier-1 is `python -m pytest -q`, the benchmark is "
        f"`benchmarks/e2e/run.py --workload all --seconds {SECONDS}`, and "
        "every interpreter either starts (benchmark workloads, spawned pool "
        "workers) is traced.",
        "",
        *(f"- {label}: {ending}" for label, (_, ending) in runs.items()),
        "",
        "## Totals",
        "",
        "| executable | both | tier-1 only | benchmark only | neither |",
        "| ---: | ---: | ---: | ---: | ---: |",
        "| " + " | ".join(map(str, totals)) + " |",
        "",
        f"Reached by either: {total - totals[4]} of {total} "
        f"({(total - totals[4]) / max(total, 1):.1%}).",
        "",
        "## Per module",
        "",
        "| module | executable | both | tier-1 only | benchmark only "
        "| neither |",
        "| --- | ---: | ---: | ---: | ---: | ---: |",
        *rows,
        "",
        "## Tier-1 only, waiting on the benchmark",
        "",
        "Lines only tier-1 runs in the modules the benchmark does not reach "
        "on purpose yet. ROADMAP item 7's `mixed_schemes` and "
        "`faulted_gateway` workloads decide whether they are measured or "
        "said in `docs/operations.md` to need no workload.",
        "",
        "| module | tier-1 only lines | why no workload reaches them |",
        "| --- | ---: | --- |",
        *waiting,
        "",
        "## Functions neither command called",
        "",
        "By qualified name and first line. Most are interface methods "
        "(abstract bases, `with_children`), dunders and frozen-dataclass "
        "guards; the rest are deletion candidates.",
        "",
        *(never or ["None."]),
        "",
    ]
    return "\n".join(lines)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        runs = {}
        for label, command in COMMANDS.items():
            if label == "benchmark":
                command = [*command,
                           "--json", str(Path(scratch) / "benchmark.json")]
            runs[label] = trace(label, command, Path(scratch))
            print(f"  {runs[label][1]}", flush=True)
        text = report(runs)
    REPORT.write_text(text)
    print(f"wrote {REPORT.relative_to(REPO)}")


if __name__ == "__main__":
    main()
