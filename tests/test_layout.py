"""Where caching code may live, and which paths ``src/`` may not regrow.

``repro/core/cache.py`` holds the one bounded LRU and the one bounded
memo, and the only reconcile of cached entries against the policy's
delta journal; the service keeps per-assignment artifacts on the
assignment, never in an ``id()``-keyed side table, and the planner keys
its per-node tables by the plan nodes themselves.  A query takes one path: the reference
implementations the equivalence suites compare against live in
``tests/oracles/``, not behind a knob in ``src/``.  These checks fail
when a hand-rolled copy of either grows back somewhere else, when a
module outgrows the size it was cut down to, when the service, the
gateway or the runtime grows a setting ``docs/operations.md`` does not
justify.  Each file is read, parsed and stripped of its comments once
per run (``source_of`` / ``tree_of`` / ``code_of``), however many gates
walk it.
"""

import ast
import dataclasses
import functools
import importlib.util
import inspect
import re
from pathlib import Path

from repro.core.operators import BaseRelationNode, PlanNode
from repro.core.plan import QueryPlan
from repro.core.schema import Relation
from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
from repro.crypto.rsa import RsaPublicKey
from repro.distributed.health import HealthRegistry
from repro.distributed.runtime import DistributedRuntime, build_runtime
from repro.gateway import Gateway, TenantConfig
from repro.service import QueryService

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
CACHE = SRC / "core" / "cache.py"
#: The journal itself is defined here.
AUTHORIZATION = SRC / "core" / "authorization.py"
WORKLOAD = SRC / "service" / "workload.py"
DISTRIBUTED = SRC / "distributed"
MODULES = sorted(SRC.rglob("*.py"))

FORBIDDEN = ("OrderedDict", "popitem(last=False)", "deltas_since(")
#: A second fragment scheduler, a selectable reference path, the
#: per-value decoder that kept ``decrypt_column`` from being bulk, a
#: second join strategy with its settings object and threshold knob, the
#: obfuscator refill thread, an off-switch for runtime enforcement, a
#: second deadline beside the query's in the retry loop, a run-time
#: exemption by subject name, a third statement of Def. 4.1 / 4.2, a
#: metrics sink threaded through the layers beside the query's trace, a
#: second bulk seal beside the ciphers' fused ``encrypt_many`` sweeps, or
#: a setting no caller outside the tests set (the §7 network, the scheme
#: families, retry and breaker tuning, a second source of simulated
#: provider latency, the shedding factor, the ledger's retention), a
#: one-shot hybrid encryption beside the sender-to-recipient session, or
#: a second statement of a scheme's column work beside
#: ``KeyMaterial.seal`` / ``open`` (the per-cell codec, the worker
#: kernels and their blob registry, the stretched obfuscator pool), or a
#: second way to say "this node" or "this plan" beside the object itself
#: (an identity-keyed node map, a structural plan fingerprint, the
#: remapping of a cached result onto another plan's nodes), or a second
#: statement of an operator's Figure 2 row beside ``output_profile`` (a
#: schema rule, a list of the equivalences it adds, a switch on the
#: operator's type for what it reads), or a wrapper over
#: ``compile_comparison``, or a second copy of a record, mirrored beside
#: the one it copies (a metrics registry whose collector callbacks set
#: totals from the ledger, the controller and the service at scrape
#: time), or the row-tuple storage a table's columns replaced (its
#: column swap and transforms, the row-keyed join and group-by helpers,
#: the per-cell token strip, the defensive copy of a result), or the
#: frozenset statement of Def. 4.1 / 4.2 and its result type beside the
#: mask kernel (``tests/oracles/authorization_literal.py`` holds it), or
#: a warm-standby failover tier beside the re-plan.
RETIRED = ("ThreadPoolExecutor", "search_impl", "nested-loop", "_reference(",
           "_column_decoder", "parallel-hash", "join_strategy",
           "ExecutionSettings", "min_parallel_items=", "_background_refill",
           "self.enforce", "fragment_deadline_seconds", "is_exempt",
           "is_authorized_for_relation", "is_authorized_assignee",
           "require_authorized", "attach_metrics", "_FragmentSink",
           "observe_fragment", "_metrics_sink", "_seal_many",
           "SchemeCapabilities", "NetworkTopology", "RetryPolicy",
           "shed_safety", "history_limit", "node.latency_seconds",
           "RsaPublicKey.encrypt", "encrypt_value(", "decrypt_value(",
           "decrypt_tokens", "_require_scheme_parts", "parallel.kernels",
           "parallel import kernels", "_rehydrate", "public_part",
           "cipher_for_attribute", "has_attribute", "_POOL_",
           "_LOCKS_GUARD", "precompute_obfuscators", "_extend_pool",
           "_pool_seeds", "NodeMap", "fingerprint(", "_rebind_result",
           "output_attributes", "equivalences_introduced", "_node_demands",
           "compare_values", "MetricsRegistry", "register_collector",
           "set_total", "_operand_kind", "_reference_message",
           "bulk_filter", "from_dicts", "replace_columns", "map_columns",
           "def _born(", "def _tokens(", "def _is_token(", "_from_trusted",
           "_residual_checks", "_residuals_hold", "_build_buckets",
           "_row_keys", "_join_key", "group_key", "less_than",
           "result.copy()", "check_relation", "check_assignee",
           "AuthorizationCheck", "standby_used", "_repaired_for")
#: Parameters that selected between paths which no longer exist.
RETIRED_PARAMETERS = ("schedule", "strategy", "failover", "received")

#: No module outgrows this …
LINE_BUDGET = 600
#: … the planner's three parts (ROADMAP 3(b)) stay well under it …
PLANNER_BUDGETS = {
    "core/assignment.py": 400, "core/search.py": 400,
    "core/edgecost.py": 400,
}
#: … so do the parts cut out of the runtime, each one decision with its
#: contract in its docstring …
RUNTIME_PARTS = ("fragcache.py", "retry.py", "enforcement.py", "nodes.py",
                 "trace.py")
RUNTIME_PART_BUDGETS = {
    f"distributed/{name}": 200 for name in RUNTIME_PARTS}
#: … and the files already over it may only shrink: lower a ceiling
#: with the file, never raise it, and drop the row once it fits.
SHRINK_ONLY = {
    "distributed/runtime.py": 654,
    "core/operators.py": 611,
}

#: ``engine/``'s total line count, pinned when tables became columnar
#: and lowered when π became a bag and when the step rule moved to
#: ``core/plan.py``.
ENGINE_LINES = 1582

#: What the retired per-layer ratio benches left their name on (spelled
#: in halves so this file passes its own check) …
LEGACY_BENCH = ("bench" + "_", "pytest" + "_benchmark", "_seed" + "_crypto",
                "BENCH" + "_")
#: … and where a reader or a runner would meet it.
MAINTAINED = ("README.md", "docs", "src", "tests", "scripts", "examples",
              ".github", ".claude", ".gitignore")


@functools.cache
def source_of(path: Path) -> str:
    """``path``'s text."""
    return path.read_text(errors="ignore")


@functools.cache
def tree_of(path: Path) -> ast.Module:
    """``path``'s syntax tree."""
    return ast.parse(source_of(path))


@functools.cache
def code_of(path: Path) -> str:
    """``path``'s source without comments and docstrings."""
    dropped: list[tuple[int, int]] = []
    for node in ast.walk(tree_of(path)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                dropped.append((first.lineno, first.end_lineno))
    lines = source_of(path).splitlines()
    for start, end in dropped:
        for number in range(start - 1, end):
            lines[number] = ""
    return "\n".join(re.sub(r"#.*", "", line) for line in lines)


def test_one_lru_and_one_journal_walk():
    offenders = []
    for path in MODULES:
        if path in (CACHE, AUTHORIZATION):
            continue
        code = code_of(path)
        offenders.extend(
            f"{path.relative_to(SRC)}: {needle}"
            for needle in FORBIDDEN if needle in code)
    assert not offenders, offenders


def hand_rolled_bounds(path: Path) -> list[str]:
    """Each place ``path`` bounds a mapping by hand: a
    ``del x[next(iter(x))]``, or a ``len(x) >= N`` guarding
    ``x.clear()``."""
    sites = []
    for node in ast.walk(tree_of(path)):
        if isinstance(node, ast.Delete):
            sites.extend(
                (node.lineno, ast.unparse(node)) for target in node.targets
                if isinstance(target, ast.Subscript)
                and ast.unparse(target.slice)
                == f"next(iter({ast.unparse(target.value)}))")
        elif isinstance(node, ast.If):
            cleared = {
                ast.unparse(call.func.value)
                for statement in node.body for call in ast.walk(statement)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "clear"}
            sites.extend(
                (node.lineno, f"{ast.unparse(test)} → clear()")
                for test in ast.walk(node.test)
                if isinstance(test, ast.Compare)
                and isinstance(test.ops[0], (ast.GtE, ast.Gt))
                and isinstance(test.left, ast.Call)
                and ast.unparse(test.left.func) == "len"
                and ast.unparse(test.left.args[0]) in cleared)
    return [f"{path.relative_to(SRC)}:{line}: {text}"
            for line, text in sorted(sites)]


def test_one_bounded_memo():
    """A memo bounded by hand grows back nowhere: every bound outside
    ``core/cache.py`` is a ``Memo`` (or an ``LRU``)."""
    offenders = [site for path in MODULES if path != CACHE
                 for site in hand_rolled_bounds(path)]
    assert not offenders, offenders


def imports_of(path: Path) -> list[str]:
    """Every module ``path`` imports, or imports a name from."""
    return [
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(tree_of(path))
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
               for path in MODULES if "authority:" in code_of(path)]
    assert spelled == ["core/authorization.py"]
    for path in sorted(DISTRIBUTED.glob("*.py")):
        if path.name != "nodes.py":  # build_nodes refuses the name
            assert "stands_in_for" not in code_of(path), path.name
    assert "stands_in_for" not in code_of(WORKLOAD)


def test_service_keeps_no_identity_keyed_side_tables():
    assert not re.search(r"\bid\(", code_of(WORKLOAD))


def test_plans_and_plan_nodes_are_their_own_keys():
    """Every node class and the plan keep ``object``'s identity
    ``__eq__`` / ``__hash__``, so two equal-looking nodes (or plans) are
    distinct dictionary keys and the planner needs no ``id()``: it stays
    only as the dispatch plan's boundary id (and a node's ``repr``)."""
    classes, pending = [QueryPlan], [PlanNode]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    assert len(classes) > 8
    for cls in classes:
        assert cls.__eq__ is object.__eq__, cls.__name__
        assert cls.__hash__ is object.__hash__, cls.__name__
    relation = Relation("R", ["a"])
    first, second = BaseRelationNode(relation), BaseRelationNode(relation)
    assert first.label() == second.label()
    table = {first: "one", QueryPlan(first): "plan"}
    assert table[first] == "one"
    assert second not in table and QueryPlan(second) not in table
    planner = [path for package in ("core", "cost")
               for path in sorted((SRC / package).glob("*.py"))
               if path.name not in ("dispatch.py", "operators.py")]
    assert not [path.name for path in planner
                if re.search(r"\bid\(", code_of(path))]


def test_no_second_schedule_and_no_reference_knob():
    offenders = []
    for path in MODULES:
        code = code_of(path)
        offenders.extend(
            f"{path.relative_to(SRC)}: {needle}"
            for needle in RETIRED if needle in code)
        for node in ast.walk(tree_of(path)):
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


def test_the_literal_authorization_oracle_is_independent():
    """The frozenset Def. 4.1 / 4.2 judges the mask kernel, so it may not
    be built from it: it imports neither ``repro.core.visibility`` nor
    ``repro.core.attrsets``."""
    oracle = REPO / "tests" / "oracles" / "authorization_literal.py"
    imported = set()
    for node in ast.walk(ast.parse(oracle.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
    assert not {name for name in imported
                if name.startswith(("repro.core.visibility",
                                    "repro.core.attrsets"))}, imported


def test_hybrid_encryption_has_one_path():
    """Envelopes are sealed by ``RsaPrivateKey.encrypt_for``, a session
    between a sender key and a recipient key; the public key seals
    nothing on its own."""
    assert not hasattr(RsaPublicKey, "encrypt")


def test_column_crypto_states_each_scheme_once():
    """The codec wraps and unwraps cells; which cipher a scheme uses is
    chosen in ``KeyMaterial.seal`` / ``open`` only, inline and on the
    worker pool alike."""
    codec = tree_of(SRC / "engine" / "codec.py")
    attributes = {node.attr for node in ast.walk(codec)
                  if isinstance(node, ast.Attribute)}
    accessors = {name for name in attributes
                 if name.endswith("_cipher") or name in (
                     "encrypt_values", "decrypt_values", "encrypt_many",
                     "decrypt_many", "encrypt", "decrypt")}
    assert not accessors, accessors
    assert {"seal", "open"} <= attributes
    assert not (SRC / "parallel" / "kernels.py").exists()
    # The symmetric ciphers keep these names, so no RETIRED needle can.
    assert not hasattr(PaillierPublicKey, "encrypt_many")
    assert not hasattr(PaillierPrivateKey, "decrypt_many")


def test_each_operator_declares_what_it_reads_and_keeps_uniform():
    """``demands`` and ``uniform_groups`` are stated on the operator;
    the rest of ``core/`` reads them there instead of switching on the
    shape of a condition."""
    offenders = [
        path.name for path in sorted((SRC / "core").glob("*.py"))
        if path.name not in ("__init__.py", "operators.py", "predicates.py")
        and "AttributeComparisonPredicate" in code_of(path)]
    assert not offenders, offenders


def test_every_document_a_module_names_exists():
    """A docstring's "see docs/….md" resolves (``scripts/check_docs.py``
    runs the same check in CI)."""
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "scripts" / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    assert check_docs.check_source_citations() == []


def test_selection_decides_per_column_not_by_exception_per_row():
    """The row closure (``tests/oracles/row_predicate.py``) found out
    what a scheme cannot do by catching ``ExecutionError`` per row."""
    assert "except ExecutionError" not in code_of(
        SRC / "engine" / "expressions.py")


def test_one_statement_of_the_filter_before_encrypt_rule():
    """``physical_step`` (``core/plan.py``, on the extended plan) says
    when a selection or projection runs ahead of the Encrypt below it;
    the executor's recursion and the runtime's are its only callers, and
    both hand the step to ``execute_step``.  No function in ``engine/``
    reads a column's representation to order a step."""
    callers, homes = {}, []
    for path in MODULES:
        if "physical_step" not in source_of(path):
            continue
        for function in ast.walk(tree_of(path)):
            if not isinstance(function, ast.FunctionDef):
                continue
            if function.name == "physical_step":
                homes.append(path.relative_to(SRC).as_posix())
            called = {getattr(call.func, "id", None)
                      or getattr(call.func, "attr", None)
                      for call in ast.walk(function)
                      if isinstance(call, ast.Call)}
            if "physical_step" in called:
                callers[function.name] = path.relative_to(SRC).as_posix()
                assert "execute_step" in called
    assert homes == ["core/plan.py"]
    assert callers == {"execute": "engine/executor.py",
                       "_evaluate": "distributed/runtime.py"}
    executor = next(node for node in ast.walk(
        tree_of(SRC / "engine" / "executor.py"))
        if isinstance(node, ast.ClassDef) and node.name == "Executor")
    for method in executor.body:
        if isinstance(method, ast.FunctionDef) \
                and method.name in ("execute", "execute_step"):
            assert "representation" not in ast.unparse(method), method.name


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
        for text in [source_of(path)]
        for needle in LEGACY_BENCH if needle in text]
    assert not offenders, offenders


def test_modules_stay_within_their_line_budgets():
    budgets = {**PLANNER_BUDGETS, **RUNTIME_PART_BUDGETS, **SHRINK_ONLY}
    lengths = {
        path.relative_to(SRC).as_posix(): len(source_of(path).splitlines())
        for path in MODULES}
    offenders = [
        f"{name}: {count} lines > {budgets.get(name, LINE_BUDGET)}"
        for name, count in lengths.items()
        if count > budgets.get(name, LINE_BUDGET)]
    assert not offenders, offenders
    assert all(lengths[name] > LINE_BUDGET for name in SHRINK_ONLY)


def test_the_row_view_stays_off_the_hot_path():
    """A table's ``rows`` is built from its columns on every read: in
    ``engine/`` only ``table.py`` reads it, and nothing in
    ``distributed/`` or ``service/`` does."""
    offenders = [
        path.relative_to(SRC).as_posix()
        for package in ("engine", "distributed", "service")
        for path in sorted((SRC / package).glob("*.py"))
        if path != SRC / "engine" / "table.py"
        and re.search(r"\.rows\b", code_of(path))]
    assert not offenders, offenders


def test_engine_does_not_regrow():
    """``engine/`` shrank when tables became columnar; it may shrink
    further, never grow back."""
    total = sum(len(source_of(path).splitlines())
                for path in (SRC / "engine").glob("*.py"))
    assert total <= ENGINE_LINES, total


#: The executor as a script may name it: the module and the class.
EXECUTOR_NAMES = {"repro.engine.executor", "repro.engine.Executor",
                  "repro.engine.executor.Executor"}


def executor_rebindings(path: Path) -> list[str]:
    """Each place ``path`` assigns to an attribute of ``Executor`` or of
    ``repro.engine.executor``, or passes one to ``setattr``, however
    the script imported it."""
    tree = tree_of(path)
    names = set(EXECUTOR_NAMES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and node.module in ("repro.engine", "repro.engine.executor"):
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name in ("Executor", "executor")}
        elif isinstance(node, ast.Import):
            names |= {alias.asname for alias in node.names
                      if alias.name == "repro.engine.executor"
                      and alias.asname}
    owners = []  # (line, the object whose attribute is set)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            owners += [(node.lineno, part.value) for target in targets
                       for part in ast.walk(target)
                       if isinstance(part, ast.Attribute)]
        elif isinstance(node, ast.Call) and node.args \
                and ast.unparse(node.func).split(".")[-1] == "setattr":
            owners.append((node.lineno, node.args[0]))
    return [f"{path.name}:{line}" for line, owner in owners
            if ast.unparse(owner) in names]


def test_scripts_read_the_record_instead_of_rebinding_the_executor():
    """What each operator did is the executor's record
    (``Executor.record``, a run's ``ExecutionTrace.nodes``): no script
    counts it by rebinding a name of ``Executor`` or of its module."""
    offenders = [site for path in sorted((REPO / "scripts").glob("*.py"))
                 for site in executor_rebindings(path)]
    assert not offenders, offenders


def table_rows(heading: str) -> list[list[str]]:
    """The cells of each body row of the first table under ``## heading``
    in ``docs/operations.md``."""
    section = (REPO / "docs" / "operations.md").read_text() \
        .split(f"\n## {heading}", 1)[1]
    rows = []
    for line in section.splitlines():
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.split("|")[1:-1]])
        elif rows:
            break
    return rows[2:]


def documented_knobs(heading: str) -> set[str]:
    """The backticked names in the first column of the first table under
    ``## heading``; ``Class(name=…)`` is read as ``Class.name``."""
    return {re.sub(r"^(\w+)\((\w+)=…\)$", r"\1.\2", name)
            for row in table_rows(heading)
            for name in re.findall(r"`([^`]+)`", row[0])}


def defaulted(function) -> set[str]:
    return {name for name, parameter
            in inspect.signature(function).parameters.items()
            if parameter.default is not parameter.empty}


def test_operations_doc_names_exactly_the_settable_knobs():
    """The knob tables are the settable surface: a parameter added to the
    service or the gateway without a row (and a reason) fails here."""
    assert documented_knobs("Service layer") == defaulted(QueryService)
    assert documented_knobs("Gateway") == {
        f"Gateway.{name}" for name in defaulted(Gateway)} | {
        f"TenantConfig.{field.name}"
        for field in dataclasses.fields(TenantConfig)
        if field.default is not dataclasses.MISSING}


def test_no_layer_below_the_entry_points_tests_for_a_missing_token():
    """``Gateway.submit``, ``QueryService.execute`` and
    ``DistributedRuntime.run`` mint an unlimited token for a caller that
    passed none, so nothing in ``service/``, ``gateway/`` or
    ``distributed/`` compares a name or attribute called ``token`` with
    ``None``: every query below them carries one."""
    offenders = []
    for package in ("service", "gateway", "distributed"):
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(tree_of(path)):
                if not isinstance(node, ast.Compare) or not any(
                        isinstance(op, (ast.Is, ast.IsNot))
                        for op in node.ops):
                    continue
                operands = [node.left, *node.comparators]
                if any(isinstance(o, ast.Constant) and o.value is None
                       for o in operands) and any(
                        getattr(o, "id", getattr(o, "attr", None))
                        == "token" for o in operands):
                    offenders.append(
                        f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders


def test_runtime_takes_only_the_service_seams():
    """Below the service the same seams and nothing else: no network,
    scheme, retry, breaker or latency setting."""
    seams = {"clock", "sleeper", "fault_injector", "workers"}
    assert defaulted(DistributedRuntime) == seams
    assert defaulted(build_runtime) == seams | {"udfs", "rsa_keys"}
    assert list(inspect.signature(HealthRegistry).parameters) == ["clock"]

