"""Run the doctests embedded in the library's docstrings — and keep
the prose documentation honest too.

Every public-API example in a docstring is executable documentation.
The same standard applies one level up: the README quickstart snippet
must run, and every module path named in ``docs/architecture.md`` must
import, so the docs cannot drift from the code without failing CI.
"""

import doctest
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

SRC = REPO_ROOT / "src"


def _modules_with_examples():
    """Every module under ``src/repro`` whose source holds a ``>>>``."""
    return sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        .removesuffix(".__init__")
        for path in (SRC / "repro").rglob("*.py")
        if ">>>" in path.read_text())


MODULES = _modules_with_examples()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures"


def test_readme_quickstart_runs():
    """The README's first ```python fence is a working program."""
    readme = (REPO_ROOT / "README.md").read_text()
    snippets = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert snippets, "README.md has no ```python quickstart snippet"
    namespace = {}
    exec(compile(snippets[0], "README.md:quickstart", "exec"), namespace)
    outcome = namespace["outcome"]
    assert sorted(outcome.result.rows) == [("tpa", 120.0)]
    assert outcome.cost_usd > 0


def _documented_modules():
    """Every `repro.x.y` path in backticks in docs/architecture.md."""
    text = (REPO_ROOT / "docs" / "architecture.md").read_text()
    names = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
    # The data-flow diagram names modules without backticks too.
    names.update(re.findall(r"(repro(?:\.\w+)+)", text))
    return sorted(names)


@pytest.mark.parametrize("dotted", _documented_modules())
def test_architecture_doc_names_importable_modules(dotted):
    """docs/architecture.md may only name modules (or module attributes)
    that actually exist — renames must update the doc."""
    try:
        importlib.import_module(dotted)
        return
    except ImportError:
        pass
    parent, _, attribute = dotted.rpartition(".")
    module = importlib.import_module(parent)  # raises on drift
    assert hasattr(module, attribute), (
        f"docs/architecture.md names {dotted!r}, but {parent!r} has no "
        f"attribute {attribute!r}")
