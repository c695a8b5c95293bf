#!/usr/bin/env python
"""pqlint — the repo's domain-invariant static analyser.

Usage::

    python tools/pqlint.py [PATHS...] [--format text|json]
                           [--rules PQ002,PQ101] [--changed REF]
                           [--list-rules]

With no paths, lints ``src/repro``.  Exit code 0 means no findings; 1
means at least one finding; 2 means bad invocation.  ``--changed REF``
restricts *reported* findings to ``*.py`` files touched vs the git ref
(plus untracked files) in this repository, while the call graph stays
project-wide — the fast pre-commit mode.  This script is the analyser's
only entry point; the engine is the ``anlz`` package next to it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from anlz import (
    RULE_REGISTRY,
    git_changed_files,
    lint_paths,
    render_json,
    render_text,
    rule_codes,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pqlint", description="PrintQueue domain-invariant linter"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=[str(REPO_ROOT / "src" / "repro")],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--changed",
        default=None,
        metavar="REF",
        help="only report findings in *.py files changed vs this git ref "
        "(call graph stays project-wide)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in rule_codes():
            rule = RULE_REGISTRY[code]
            print(f"{code}  {rule.name:<18} {rule.summary}")
        return 0

    only = None
    if args.rules is not None:
        only = [code.strip() for code in args.rules.split(",") if code.strip()]
    changed = None
    if args.changed is not None:
        try:
            changed = git_changed_files(args.changed, REPO_ROOT)
        except ValueError as exc:
            print(f"pqlint: {exc}", file=sys.stderr)
            return 2
    try:
        result = lint_paths(
            [Path(p) for p in args.paths], only=only, changed=changed
        )
    except KeyError as exc:
        print(f"pqlint: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
