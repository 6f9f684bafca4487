"""Where caching code may live, and which paths ``src/`` may not regrow.

``repro/core/cache.py`` holds the only bounded LRU and the only
reconcile of cached entries against the policy's delta journal; the
service keeps per-assignment artifacts on the assignment, never in an
``id()``-keyed side table.  A query takes one path: the reference
implementations the equivalence suites compare against live in
``tests/oracles/``, not behind a knob in ``src/``.  These checks fail
when a hand-rolled copy of either grows back somewhere else — and when
a module outgrows the size it was cut down to.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
CACHE = SRC / "core" / "cache.py"
#: The journal itself is defined here.
AUTHORIZATION = SRC / "core" / "authorization.py"
WORKLOAD = SRC / "service" / "workload.py"
DISTRIBUTED = SRC / "distributed"

FORBIDDEN = ("OrderedDict", "popitem(last=False)", "deltas_since(")
#: A second fragment scheduler, a selectable reference path, the
#: per-value decoder that kept ``decrypt_column`` from being bulk, a
#: second join strategy with its settings object and threshold knob, the
#: obfuscator refill thread, an off-switch for runtime enforcement, a
#: second deadline beside the query's in the retry loop, a run-time
#: exemption by subject name, or a third statement of Def. 4.1 / 4.2.
RETIRED = ("ThreadPoolExecutor", "search_impl", "nested-loop", "_reference(",
           "_column_decoder", "parallel-hash", "join_strategy",
           "ExecutionSettings", "min_parallel_items=", "_background_refill",
           "self.enforce", "fragment_deadline_seconds", "is_exempt",
           "is_authorized_for_relation", "is_authorized_assignee",
           "require_authorized")
#: Parameters that selected between paths which no longer exist.
RETIRED_PARAMETERS = ("schedule", "strategy")

#: No module outgrows this …
LINE_BUDGET = 600
#: … the planner's three parts (ROADMAP 3(b)) stay well under it …
PLANNER_BUDGETS = {
    "core/assignment.py": 400, "core/search.py": 400,
    "core/edgecost.py": 400,
}
#: … so do the parts cut out of the runtime, each one decision with its
#: contract in its docstring …
RUNTIME_PARTS = ("fragcache.py", "retry.py", "enforcement.py", "nodes.py")
RUNTIME_PART_BUDGETS = {
    f"distributed/{name}": 200 for name in RUNTIME_PARTS}
#: … and the files already over it may only shrink: lower a ceiling
#: with the file, never raise it, and drop the row once it fits.
SHRINK_ONLY = {
    "distributed/runtime.py": 694,
    "core/operators.py": 741,
    "service/workload.py": 644,
}

#: What the retired per-layer ratio benches left their name on (spelled
#: in halves so this file passes its own check) …
LEGACY_BENCH = ("bench" + "_", "pytest" + "_benchmark", "_seed" + "_crypto",
                "BENCH" + "_")
#: … and where a reader or a runner would meet it.
MAINTAINED = ("README.md", "docs", "src", "tests", "scripts", "examples",
              ".github", ".claude", ".gitignore")


def code_of(path: Path) -> str:
    """``path``'s source without comments and docstrings."""
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
        code = code_of(path)
        offenders.extend(
            f"{path.relative_to(SRC)}: {needle}"
            for needle in FORBIDDEN if needle in code)
    assert not offenders, offenders


def imports_of(path: Path) -> list[str]:
    """Every module ``path`` imports, or imports a name from."""
    return [
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names]


def test_cache_module_is_a_leaf():
    assert not [name for name in imports_of(CACHE)
                if name.startswith("repro")]


def test_runtime_parts_do_not_reach_back_into_the_runtime():
    """The runtime is built from its parts, never the reverse; what is
    enforced and what is retried know nothing of envelopes or executors."""
    for name in RUNTIME_PARTS:
        imported = imports_of(DISTRIBUTED / name)
        assert "repro.distributed.runtime" not in imported, name
        assert "repro.distributed" not in imported, name
    for name in ("enforcement.py", "retry.py"):
        imported = imports_of(DISTRIBUTED / name)
        assert not {"repro.distributed.messages",
                    "repro.engine.executor"} & set(imported), name


def test_one_spelling_of_the_stand_in_prefix():
    """``authority:<relation>`` — the stand-in for a relation nobody
    owns — is spelled where it is defined, beside ``Subject``; every
    other module asks ``holder_of`` / ``stands_in_for``, and nothing on
    the run-time path asks at all."""
    spelled = [path.relative_to(SRC).as_posix()
               for path in sorted(SRC.rglob("*.py"))
               if "authority:" in code_of(path)]
    assert spelled == ["core/authorization.py"]
    for path in sorted(DISTRIBUTED.glob("*.py")):
        if path.name != "nodes.py":  # build_nodes refuses the name
            assert "stands_in_for" not in code_of(path), path.name
    assert "stands_in_for" not in code_of(WORKLOAD)


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
                    f"{path.relative_to(SRC)}: {node.name}({argument.arg})"
                    for argument in arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs
                    if argument.arg in RETIRED_PARAMETERS)
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


def test_one_statement_of_the_filter_before_encrypt_rule():
    """``physical_step`` (engine) says when a selection may run ahead of
    the Encrypt below it; the executor's recursion and the runtime's are
    its only callers, and both hand the step to ``execute_step``."""
    callers = {}
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        if "physical_step" not in source:
            continue
        for function in ast.walk(ast.parse(source)):
            if not isinstance(function, ast.FunctionDef):
                continue
            called = {getattr(call.func, "id", None)
                      or getattr(call.func, "attr", None)
                      for call in ast.walk(function)
                      if isinstance(call, ast.Call)}
            if "physical_step" in called:
                callers[function.name] = path.relative_to(SRC).as_posix()
                assert "execute_step" in called
    assert callers == {"execute": "engine/executor.py",
                       "_evaluate": "distributed/runtime.py"}


def test_one_benchmark_and_structural_gates_live_in_tier_1():
    """``benchmarks/e2e`` is the only benchmark; CI, code and docs name
    no other."""
    assert [path.name for path in (REPO / "benchmarks").iterdir()
            if path.name != "__pycache__"] == ["e2e"]
    files = [path for name in MAINTAINED
             for path in ([REPO / name] if (REPO / name).is_file()
                          else sorted((REPO / name).rglob("*")))
             if path.is_file() and path.suffix != ".pyc"]
    offenders = [
        f"{path.relative_to(REPO)}: {needle}"
        for path in files
        for text in [path.read_text(errors="ignore")]
        for needle in LEGACY_BENCH if needle in text]
    assert not offenders, offenders


def test_modules_stay_within_their_line_budgets():
    budgets = {**PLANNER_BUDGETS, **RUNTIME_PART_BUDGETS, **SHRINK_ONLY}
    lengths = {
        path.relative_to(SRC).as_posix(): len(path.read_text().splitlines())
        for path in sorted(SRC.rglob("*.py"))}
    offenders = [
        f"{name}: {count} lines > {budgets.get(name, LINE_BUDGET)}"
        for name, count in lengths.items()
        if count > budgets.get(name, LINE_BUDGET)]
    assert not offenders, offenders
    assert all(lengths[name] > LINE_BUDGET for name in SHRINK_ONLY)
