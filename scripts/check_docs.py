#!/usr/bin/env python
"""Validate intra-repo markdown links and the docs that code names.

Usage::

    python scripts/check_docs.py [ROOT]

Walks every ``*.md`` file under ROOT (default: the repo root, one
directory above this script), extracts inline markdown links
``[text](target)``, and checks that every *relative* target resolves
to an existing file or directory, including a ``#fragment``'s heading
when the target is a markdown file.  External links (``http(s)://``,
``mailto:``) are skipped — this is a repo-consistency check, not a
link crawler, and CI must not flake on network weather.

It also reads every ``*.py`` file under ``src/``, ``benchmarks/``,
``examples/`` and ``scripts/`` for the names of markdown
files: a bare name must match some markdown file in the repo, a name
with a directory the file at that path from ROOT.

Exit status: 0 when every link and name resolves, 1 otherwise (each
problem reported as ``file:line: target``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: ``[text](target)`` inline links; images share the syntax and are
#: checked too (a missing figure is just as broken).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP_SCHEMES = ("http://", "https://", "mailto:")
#: A markdown file's name, bare or with its directory, in Python text.
MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")
#: Directories whose Python files may name docs.
CODE_DIRS = ("src", "benchmarks", "examples", "scripts")
#: Directories that hold no docs of ours.
SKIP_PARTS = {".git", ".venv", "node_modules", "__pycache__",
              ".pytest_cache", "build", "dist"}


def heading_anchors(markdown: str) -> set[str]:
    """GitHub-style anchors for every heading in the document."""
    anchors = set()
    for line in markdown.splitlines():
        match = re.match(r"#{1,6}\s+(.*)", line)
        if match:
            text = re.sub(r"[`*_]", "", match.group(1)).strip().lower()
            anchors.add(re.sub(r"[^\w\- ]", "", text).replace(" ", "-"))
    return anchors


def iter_markdown_files(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not SKIP_PARTS.intersection(path.relative_to(root).parts):
            yield path


def check_file(path: Path, root: Path) -> list[str]:
    problems = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES):
                continue
            target, _, fragment = target.partition("#")
            if not target:      # same-document fragment
                resolved = path
            else:
                resolved = (path.parent / target).resolve()
                try:
                    resolved.relative_to(root)
                except ValueError:
                    problems.append(f"{path.relative_to(root)}:{lineno}: "
                                    f"{target} escapes the repo")
                    continue
                if not resolved.exists():
                    problems.append(f"{path.relative_to(root)}:{lineno}: "
                                    f"{target} does not exist")
                    continue
            if fragment and resolved.suffix == ".md" and resolved.is_file():
                if fragment.lower() not in heading_anchors(
                        resolved.read_text(encoding="utf-8")):
                    problems.append(f"{path.relative_to(root)}:{lineno}: "
                                    f"{target}#{fragment}: no such heading")
    return problems


def check_code_references(root: Path, doc_names: set[str]) -> list[str]:
    """Markdown names in the code directories' ``*.py`` files that
    match no markdown file (``doc_names``: every one's basename)."""
    problems = []
    for folder in CODE_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            if SKIP_PARTS.intersection(path.relative_to(root).parts):
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            for lineno, line in enumerate(lines, 1):
                for name in MD_NAME_RE.findall(line):
                    found = ((root / name).is_file() if "/" in name
                             else name in doc_names)
                    if not found:
                        problems.append(f"{path.relative_to(root)}:{lineno}: "
                                        f"{name} does not exist")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]).resolve() if argv else \
        Path(__file__).resolve().parent.parent
    problems = []
    docs = list(iter_markdown_files(root))
    for path in docs:
        problems.extend(check_file(path, root))
    problems.extend(check_code_references(root, {p.name for p in docs}))
    for problem in problems:
        print(f"check_docs: {problem}", file=sys.stderr)
    print(f"check_docs: {len(docs)} markdown files, "
          f"{len(problems)} broken links or names")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
