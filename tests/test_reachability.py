"""tools/reachability.py: only definitions no entry point reaches are listed."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _unreached():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from reachability import unreached
    finally:
        sys.path.pop(0)
    return unreached


def test_lists_only_the_orphan(tmp_path):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "core.py").write_text(
        "def helper():\n    return 1\n\n\ndef orphan():\n    return 2\n"
    )
    examples = tmp_path / "examples"
    examples.mkdir()
    root = examples / "run.py"
    root.write_text(
        "from pkg.core import helper\n\n\ndef main():\n    return helper()\n"
    )
    assert _unreached()(src, [root]) == ["core.py::orphan"]


def test_live_tree_has_no_unreached_definition_outside_the_allowlist():
    """Every ``src/repro`` definition is reached from an entry point or
    allowlisted with a reason, and every allowlist entry is still a hit."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        from reachability import live_tree_findings
    finally:
        sys.path.pop(0)
    assert live_tree_findings() == []
