"""The documentation checker: backticked repository paths must exist.

``tools/check_links.py`` runs in CI's docs job over README.md,
EXPERIMENTS.md, DESIGN.md, ROADMAP.md and docs/*.md.  Besides markdown
links it checks every backticked ``*.py`` path under the repository's
top-level source directories (``repro/`` resolved under ``src/``), with
``{a,b}`` groups expanded and fenced blocks skipped.
"""

from __future__ import annotations

import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[2] / "tools"
if str(_TOOLS) not in sys.path:
    sys.path.insert(0, str(_TOOLS))

from check_links import check_file, main  # noqa: E402


def test_flags_only_the_missing_backticked_path(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "The checker is `tools/check_links.py`, next to "
        "`repro/cloud/{fast,simulation}.py` and `tests/integration/test_check_links.py::x`.\n"
        "But `repro/cloud/no_such_module.py` is gone.\n"
        "```\n"
        "`tests/only_in_a_fence.py` is an example, not a reference.\n"
        "```\n"
    )
    problems = check_file(doc)
    assert problems == [
        f"{doc}:2: missing path -> repro/cloud/no_such_module.py "
        "(in `repro/cloud/no_such_module.py`)"
    ]
    assert main([str(doc)]) == 1
    assert "1 problem(s)" in capsys.readouterr().out
