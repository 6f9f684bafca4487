"""``scripts/kill_matrix.py`` names each enforcement site by its exact
source text, so an edit to a site would otherwise turn its mutant into a
silent no-op: every ``old`` text must still occur exactly once, every
replacement must still compile, and every mutant must have its row of
killers in ``tests/KILL_MATRIX.md``."""

import ast
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "kill_matrix", REPO / "scripts" / "kill_matrix.py")
kill_matrix = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kill_matrix)


def test_every_mutant_still_finds_its_site_exactly_once():
    names = [mutant.name for mutant in kill_matrix.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in kill_matrix.MUTANTS:
        text = (kill_matrix.SRC / mutant.file).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        ast.parse(text.replace(mutant.old, mutant.new))


def test_every_mutant_has_a_row_in_the_committed_matrix():
    matrix = (REPO / "tests" / "KILL_MATRIX.md").read_text()
    rows = [line for line in matrix.splitlines() if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == [
        mutant.name for mutant in kill_matrix.MUTANTS]
