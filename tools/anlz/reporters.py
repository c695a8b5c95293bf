"""Reporters: serialise a :class:`~anlz.engine.LintResult`.

Two formats:

* **text** — one ``path:line:col: RULE message`` line per finding plus a
  one-line summary, the shape editors and CI logs expect;
* **json** — a stable document (``version``, per-finding records,
  ``counts_by_rule``, ``suppressed_by_rule``, ``files_checked``)
  consumed by ``tools/lint_report.py`` to fold ``pq_lint_*`` counts into
  a :class:`~repro.obs.report.RunReport`.

JSON document history: version 1 had a scalar ``suppressed`` count;
version 2 adds ``suppressed_by_rule`` and, when the ``--changed``
filter ran, ``files_selected``.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from anlz.engine import LintResult

__all__ = [
    "JSON_VERSION",
    "render_json",
    "render_text",
    "to_document",
]

JSON_VERSION = 2


def render_text(result: LintResult) -> str:
    """One ``path:line:col: RULE message`` line per finding + a summary."""
    lines = [finding.render() for finding in result.findings]
    scope = (
        ""
        if result.files_selected is None
        else f", {result.files_selected} selected by --changed"
    )
    summary = (
        f"pqlint: {len(result.findings)} finding"
        f"{'' if len(result.findings) == 1 else 's'} "
        f"({len(result.suppressed)} suppressed) "
        f"in {result.files_checked} files{scope}"
    )
    lines.append(summary)
    return "\n".join(lines)


def to_document(result: LintResult) -> Dict[str, Any]:
    """The JSON-ready document (also what the tests assert against)."""
    document: Dict[str, Any] = {
        "version": JSON_VERSION,
        "ok": result.ok,
        "files_checked": result.files_checked,
        "counts_by_rule": result.counts_by_rule(),
        "suppressed": len(result.suppressed),
        "suppressed_by_rule": result.suppressed_by_rule(),
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule": f.rule,
                "message": f.message,
            }
            for f in result.findings
        ],
    }
    if result.files_selected is not None:
        document["files_selected"] = result.files_selected
    return document


def render_json(result: LintResult, indent: int = 2) -> str:
    """:func:`to_document` serialised with stable key order."""
    return json.dumps(to_document(result), indent=indent, sort_keys=True)
