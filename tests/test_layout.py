"""Where caching code may live, and which paths ``src/`` may not regrow.

``repro/core/cache.py`` holds the only bounded LRU and the only
reconcile of cached entries against the policy's delta journal; the
service keeps per-assignment artifacts on the assignment, never in an
``id()``-keyed side table.  A query takes one path: the reference
implementations the equivalence suites compare against live in
``tests/oracles/``, not behind a knob in ``src/``.  These checks fail
when a hand-rolled copy of either grows back somewhere else.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CACHE = SRC / "core" / "cache.py"
#: The journal itself is defined here.
AUTHORIZATION = SRC / "core" / "authorization.py"
ASSIGNMENT = SRC / "core" / "assignment.py"
WORKLOAD = SRC / "service" / "workload.py"

FORBIDDEN = ("OrderedDict", "popitem(last=False)", "deltas_since(")
#: A second fragment scheduler, a selectable reference path, or the
#: per-value decoder that kept ``decrypt_column`` from being bulk.
RETIRED = ("ThreadPoolExecutor", "search_impl", "nested-loop", "_reference(",
           "_column_decoder")


def code_of(path: Path, skip: tuple[str, str] | None = None) -> str:
    """``path``'s source without comments, docstrings or — for
    ``skip=(class name, method name)`` — that one method."""
    source = path.read_text()
    tree = ast.parse(source)
    dropped: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                dropped.append((first.lineno, first.end_lineno))
        if skip and isinstance(node, ast.ClassDef) and node.name == skip[0]:
            dropped.extend(
                (item.lineno, item.end_lineno) for item in node.body
                if isinstance(item, ast.FunctionDef)
                and item.name == skip[1])
    lines = source.splitlines()
    for start, end in dropped:
        for number in range(start - 1, end):
            lines[number] = ""
    return "\n".join(re.sub(r"#.*", "", line) for line in lines)


def test_one_lru_and_one_journal_walk():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in (CACHE, AUTHORIZATION):
            continue
        # EdgeTableCache.begin sweeps receiver rows *inside* cached
        # tables — finer than an entry, so it walks the journal itself.
        skip = ("EdgeTableCache", "begin") if path == ASSIGNMENT else None
        code = code_of(path, skip)
        offenders.extend(
            f"{path.relative_to(SRC)}: {needle}"
            for needle in FORBIDDEN if needle in code)
    assert not offenders, offenders


def test_the_exemption_is_still_needed():
    assert "deltas_since(" in ASSIGNMENT.read_text()
    assert "deltas_since(" not in code_of(
        ASSIGNMENT, ("EdgeTableCache", "begin"))


def test_cache_module_is_a_leaf():
    tree = ast.parse(CACHE.read_text())
    imported = [
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names]
    assert not [name for name in imported if name.startswith("repro")]


def test_service_keeps_no_identity_keyed_side_tables():
    assert not re.search(r"\bid\(", code_of(WORKLOAD))


def test_no_second_schedule_and_no_reference_knob():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        code = code_of(path)
        offenders.extend(
            f"{path.relative_to(SRC)}: {needle}"
            for needle in RETIRED if needle in code)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                arguments = node.args
                offenders.extend(
                    f"{path.relative_to(SRC)}: {node.name}(schedule)"
                    for argument in arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs if argument.arg == "schedule")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names] \
                    if isinstance(node, ast.Import) else [node.module or ""]
                offenders.extend(
                    f"{path.relative_to(SRC)}: imports {name}"
                    for name in names
                    if name.split(".")[0] in ("tests", "oracles", "helpers"))
    assert not offenders, offenders


def test_selection_decides_per_column_not_by_exception_per_row():
    """The row closure (``tests/oracles/row_predicate.py``) found out
    what a scheme cannot do by catching ``ExecutionError`` per row."""
    assert "except ExecutionError" not in code_of(
        SRC / "engine" / "expressions.py")
