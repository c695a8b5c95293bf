"""``anlz`` — pqlint, the domain-invariant static analyser.

An AST-based engine enforcing the invariants the test suite can only
sample: Algorithm-1 register-width discipline (PQ002), the typed error
taxonomy (PQ004), the keyword-only public API surface (PQ005), and the
cross-file concurrency family (PQ101, PQ102, PQ105): event-loop
liveness, obs lock discipline and no-await-under-lock — built on a
project-wide call graph (:mod:`anlz.callgraph`) and context propagation
(:mod:`anlz.contexts`).  Run it with ``python tools/pqlint.py``;
suppress a finding with ``# pqlint: disable=RULE`` on the finding's own
line (see ``docs/API.md``).  It lives beside the tools that import it,
not in the ``repro`` package: nothing at runtime needs it.
"""

from anlz.engine import LintEngine, LintResult, git_changed_files, lint_paths
from anlz.reporters import render_json, render_text, to_document
from anlz.rules import RULE_REGISTRY, rule_codes

__all__ = [
    "LintEngine",
    "LintResult",
    "RULE_REGISTRY",
    "git_changed_files",
    "lint_paths",
    "render_json",
    "render_text",
    "rule_codes",
    "to_document",
]
