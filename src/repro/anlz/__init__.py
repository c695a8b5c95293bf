"""``repro.anlz`` — pqlint, the domain-invariant static analyser.

An AST-based engine enforcing the invariants the test suite can only
sample: data-plane determinism (PQ001), Algorithm-1 register-width
discipline (PQ002), scalar==production counter parity (PQ003), the typed
error taxonomy (PQ004), the keyword-only public API surface (PQ005),
and the cross-file concurrency family (PQ101–PQ102, PQ105): event-loop
liveness, obs lock discipline and no-await-under-lock — built on a
project-wide call graph
(:mod:`repro.anlz.callgraph`) and context propagation
(:mod:`repro.anlz.contexts`).  Run it via ``repro lint`` or
``python tools/pqlint.py``; suppress a finding with
``# pqlint: disable=RULE`` on the finding's own line (see
``docs/API.md``).
"""

from repro.anlz.callgraph import ProjectIndex, build_project_index
from repro.anlz.contexts import async_roots, propagate
from repro.anlz.engine import (
    LintEngine,
    LintResult,
    git_changed_files,
    lint_paths,
)
from repro.anlz.model import Finding, SourceModule, parse_module
from repro.anlz.reporters import (
    render_json,
    render_sarif,
    render_text,
    to_document,
    to_sarif,
)
from repro.anlz.rules import RULE_REGISTRY, all_rules, rule_codes

__all__ = [
    "Finding",
    "LintEngine",
    "LintResult",
    "ProjectIndex",
    "RULE_REGISTRY",
    "SourceModule",
    "all_rules",
    "async_roots",
    "build_project_index",
    "git_changed_files",
    "lint_paths",
    "parse_module",
    "propagate",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_codes",
    "to_document",
    "to_sarif",
]
