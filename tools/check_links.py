#!/usr/bin/env python3
"""Check relative links and repository paths in the markdown documentation.

Stdlib-only, used by the CI docs job::

    python tools/check_links.py README.md EXPERIMENTS.md docs/*.md

For every ``[text](target)`` link in the given files, verifies that a
relative ``target`` exists on disk (resolved against the linking file's
directory, with ``#anchors`` stripped).  External schemes
(``http(s)://``, ``mailto:``) and pure in-page anchors are skipped —
this guards the repo's internal cross-references, not the web.

Backticked Python paths are checked too: a ``*.py`` path under ``src/``,
``repro/`` (resolved under ``src/``), ``tools/``, ``tests/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` inside an inline code
span must exist in the repository, after expanding ``{a,b}`` groups and
dropping ``::test`` / ``:line`` suffixes.  Placeholders (``<name>``,
``*``) are skipped.

Exits 1 and lists every broken link or missing path.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: [text](target) — target must not itself contain parentheses/whitespace.
_LINK = re.compile(r"\[[^\]]*\]\(([^()\s]+)\)")
#: schemes we never resolve locally.
_EXTERNAL = ("http://", "https://", "mailto:")
#: fenced code blocks are documentation *examples*, not navigation.
_FENCE = re.compile(r"^(```|~~~)")
#: inline code spans.
_CODE = re.compile(r"`([^`]+)`")
#: a path token under one of the checked top-level directories.
_REPO_PATH = re.compile(r"^(src|repro|tools|tests|benchmarks|examples|perfbench)/\S*\.py$")
_BRACES = re.compile(r"\{([^{}]*)\}")
_ROOT = Path(__file__).resolve().parents[1]


def _prose_lines(path: Path):
    """Yield (line_number, line) for lines outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def expand_braces(text: str) -> list[str]:
    """``a/{b,c}.py`` -> ``["a/b.py", "a/c.py"]`` (groups expand left to right)."""
    match = _BRACES.search(text)
    if match is None:
        return [text]
    head, tail = text[: match.start()], text[match.end() :]
    return [
        expanded
        for option in match.group(1).split(",")
        for expanded in expand_braces(head + option + tail)
    ]


def iter_repo_paths(path: Path):
    """Yield (line_number, raw_token, repo_path) for backticked repository paths."""
    for lineno, line in _prose_lines(path):
        for span in _CODE.findall(line):
            for token in span.split():
                if any(mark in token for mark in "<*?"):
                    continue
                for candidate in expand_braces(token.split(":", 1)[0]):
                    if _REPO_PATH.match(candidate):
                        yield lineno, token, candidate


def iter_links(path: Path):
    """Yield (line_number, raw_target) for each local link in ``path``."""
    for lineno, line in _prose_lines(path):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            yield lineno, target


def check_file(path: Path) -> list[str]:
    """Broken-link messages for one markdown file."""
    problems = []
    for lineno, target in iter_links(path):
        local = target.split("#", 1)[0]
        if not local:
            continue
        resolved = (path.parent / local).resolve()
        if not resolved.exists():
            problems.append(f"{path}:{lineno}: broken link -> {target}")
    for lineno, token, candidate in iter_repo_paths(path):
        local = "src/" + candidate if candidate.startswith("repro/") else candidate
        if not (_ROOT / local).is_file():
            problems.append(f"{path}:{lineno}: missing path -> {candidate} (in `{token}`)")
    return problems


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_links.py FILE.md [FILE.md ...]", file=sys.stderr)
        return 2
    problems: list[str] = []
    checked = 0
    for name in argv:
        path = Path(name)
        if not path.is_file():
            problems.append(f"{path}: file not found")
            continue
        checked += 1
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"checked {checked} file(s): {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
