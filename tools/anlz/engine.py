"""The pqlint engine: discovery, parsing, rule dispatch, suppression.

One :class:`LintEngine` run is a pure function of the files under its
roots: discover ``*.py`` files, parse each into a
:class:`~anlz.model.SourceModule`, build one
:class:`~anlz.callgraph.ProjectIndex` (the symbol table + call
graph the PQ1xx rules traverse), run every
:class:`~anlz.rules.FileRule` per module and every
:class:`~anlz.rules.ProjectRule` once over the whole set, then
drop findings the source suppressed (``# pqlint: disable=...``).  The
result is a :class:`LintResult` the reporters serialise.

Suppression is decided at the *finding site*: a cross-file rule may be
anchored conceptually to one module (an async root) but
each finding it emits carries the path/line where the violation lives,
and the directive on *that* line is what silences it.

``--changed`` mode narrows the *reported* findings to files touched
versus a git ref while the call graph stays project-wide — a blocking
call added to a helper still trips PQ101 even though the async root
didn't change, as long as the helper itself is in the changed set.

Files that fail to parse surface as ``PQ000`` findings rather than a
crash — a tree that does not parse is certainly not invariant-clean.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from anlz.callgraph import build_project_index
from anlz.model import Finding, SourceModule, parse_module
from anlz.rules import FileRule, ProjectRule, all_rules

__all__ = ["LintEngine", "LintResult", "git_changed_files", "lint_paths"]

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "build", "dist"})


@dataclass
class LintResult:
    """Everything one engine run produced."""

    #: Findings that survived suppression, sorted by (path, line, rule).
    findings: List[Finding]
    #: Findings silenced by a ``# pqlint: disable`` directive.
    suppressed: List[Finding]
    #: How many files were parsed (suppression-independent denominator).
    files_checked: int = 0
    #: How many files the ``--changed`` filter selected (None = no filter).
    files_selected: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        """``{rule code: surviving finding count}`` — the report metric."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def suppressed_by_rule(self) -> Dict[str, int]:
        """``{rule code: suppressed finding count}`` — audit visibility."""
        counts: Dict[str, int] = {}
        for finding in self.suppressed:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts


@dataclass
class LintEngine:
    """Run the rule catalogue over one or more source roots."""

    rules: List[FileRule] = field(default_factory=all_rules)

    def discover(self, root: Path) -> List[Path]:
        if root.is_file():
            return [root]
        return sorted(
            p
            for p in root.rglob("*.py")
            if not any(part in _SKIP_DIRS for part in p.parts)
        )

    def run(
        self,
        roots: Sequence[Path],
        changed: Optional[Set[Path]] = None,
    ) -> LintResult:
        """Lint everything under ``roots``.

        ``changed``, when given, is a set of resolved absolute paths:
        every file is still parsed and indexed (the call graph must stay
        project-wide), but only findings *located in* a changed file are
        reported or counted as suppressed.
        """
        modules: List[SourceModule] = []
        raw: List[Finding] = []
        for root in roots:
            base = root if root.is_dir() else root.parent
            for path in self.discover(root):
                try:
                    modules.append(parse_module(path, base))
                except (SyntaxError, UnicodeDecodeError) as exc:
                    line = getattr(exc, "lineno", 1) or 1
                    raw.append(
                        Finding(
                            path=path.relative_to(base).as_posix(),
                            line=int(line),
                            col=0,
                            rule="PQ000",
                            message=f"file does not parse: {exc}",
                        )
                    )

        by_rel: Dict[str, SourceModule] = {m.rel_path: m for m in modules}
        index = build_project_index(modules)
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check_project(index))
            else:
                for module in modules:
                    raw.extend(rule.check(module))

        selected: Optional[Set[str]] = None
        if changed is not None:
            selected = {
                m.rel_path for m in modules if m.path.resolve() in changed
            }

        kept: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in sorted(raw):
            if selected is not None and finding.path not in selected:
                continue
            module = by_rel.get(finding.path)
            if module is not None and module.is_suppressed(
                finding.rule, finding.line
            ):
                suppressed.append(finding)
            else:
                kept.append(finding)
        return LintResult(
            findings=kept,
            suppressed=suppressed,
            files_checked=len(modules),
            files_selected=None if selected is None else len(selected),
        )


def git_changed_files(ref: str, repo: Path) -> Set[Path]:
    """Absolute paths of ``*.py`` files changed vs ``ref`` (plus untracked).

    Raises :class:`ValueError` (with git's stderr) when the ref does not
    resolve or ``repo`` is not a git work tree — the CLI maps that to its
    usage exit code rather than a traceback.
    """

    def run_git(*args: str) -> str:
        proc = subprocess.run(
            ["git", "-C", str(repo), *args],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            detail = proc.stderr.strip() or proc.stdout.strip()
            raise ValueError(f"git {' '.join(args)} failed: {detail}")
        return proc.stdout

    toplevel = Path(run_git("rev-parse", "--show-toplevel").strip())
    names: Set[str] = set()
    diff = run_git("diff", "--name-only", "-z", ref, "--", "*.py")
    names.update(n for n in diff.split("\0") if n)
    untracked = run_git(
        "ls-files", "--others", "--exclude-standard", "-z", "--", "*.py"
    )
    names.update(n for n in untracked.split("\0") if n)
    return {(toplevel / name).resolve() for name in names}


def lint_paths(
    paths: Iterable[Path],
    only: Optional[Iterable[str]] = None,
    changed: Optional[Set[Path]] = None,
) -> LintResult:
    """Front door used by ``tools/pqlint.py`` and the tests."""
    return LintEngine(rules=all_rules(only)).run(
        [Path(p) for p in paths], changed=changed
    )
