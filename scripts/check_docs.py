#!/usr/bin/env python
"""Check that every relative link in README.md and docs/ resolves.

Markdown links of the form ``[text](target)`` are extracted from
README.md and every ``docs/*.md`` file. External targets (http/https/
mailto) are skipped; everything else must name an existing file or
directory relative to the linking document (anchors are stripped, and a
pure ``#anchor`` link must point at a heading in the same file).

Every ``*.md`` name in a module under ``src/`` (a docstring's "see
docs/architecture.md") must name an existing file relative to the
repository root.

Exit status 0 when everything resolves, 1 with one line per broken
link otherwise. Run from anywhere::

    python scripts/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")
MD_NAME = re.compile(r"[\w./-]*\.md\b")


def heading_anchors(text: str) -> set[str]:
    """GitHub-style anchors for every markdown heading in ``text``."""
    anchors = set()
    for match in re.finditer(r"^#+\s+(.+)$", text, re.MULTILINE):
        title = re.sub(r"[`*_]", "", match.group(1).strip()).lower()
        anchors.add(re.sub(r"[^\w\- ]", "", title).replace(" ", "-"))
    return anchors


def check_file(path: Path) -> list[str]:
    text = path.read_text()
    problems = []
    for target in LINK.findall(text):
        if target.startswith(EXTERNAL) or target.startswith("<"):
            continue
        base, _, anchor = target.partition("#")
        if not base:
            if anchor and anchor not in heading_anchors(text):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}: no heading for "
                    f"anchor #{anchor}")
            continue
        resolved = (path.parent / base).resolve()
        if not resolved.exists():
            problems.append(
                f"{path.relative_to(REPO_ROOT)}: broken link {target}")
        elif anchor and resolved.suffix == ".md":
            if anchor not in heading_anchors(resolved.read_text()):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}: {base} has no "
                    f"heading for anchor #{anchor}")
    return problems


def check_source_citations() -> list[str]:
    """Every ``*.md`` a module under ``src/`` names exists."""
    problems = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        lines = path.read_text().splitlines()
        for number, line in enumerate(lines, start=1):
            for name in MD_NAME.findall(line):
                if not (REPO_ROOT / name).is_file():
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}:{number}: names "
                        f"{name}, which does not exist")
    return problems


def main() -> int:
    documents = [REPO_ROOT / "README.md"]
    documents.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    problems = []
    for document in documents:
        if not document.exists():
            problems.append(f"missing document: {document.name}")
            continue
        problems.extend(check_file(document))
    problems.extend(check_source_citations())
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print(f"{len(documents)} documents checked, all links and the "
              f"documents src/ names resolve")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
