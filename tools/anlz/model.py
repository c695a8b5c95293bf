"""Data model for pqlint: findings, parsed modules, suppressions.

A :class:`SourceModule` is one parsed Python file plus everything a rule
needs to reason about it cheaply: its AST, its path *relative to the
scanned root* (rules scope themselves by path segment — ``core/``,
``engine/``, ...), and the suppression directives extracted from its
comments.

Suppression syntax (checked by ``tests/test_pqlint.py``)::

    x = tts & 0xFF  # pqlint: disable=PQ002
    y = 1           # pqlint: disable=PQ002,PQ005
    # pqlint: disable-file=PQ004      (anywhere in the file)

``disable=`` silences the named rules for findings *on that physical
line* (the line carrying the comment — for a multi-line statement, put
the directive on the line the finding points at).  ``disable-file=``
silences the named rules for the whole file.  ``ALL`` is accepted in
either form.  Suppressions are parsed from real COMMENT tokens via
:mod:`tokenize`, so a ``# pqlint:`` inside a string literal is inert.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Set, Tuple

__all__ = ["Finding", "SourceModule", "parse_module"]

_DIRECTIVE_RE = re.compile(
    r"#\s*pqlint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class SourceModule:
    """One parsed source file, ready for rules to visit."""

    path: Path
    #: POSIX-style path relative to the scanned root (what findings show).
    rel_path: str
    text: str
    tree: ast.Module
    #: line number -> rule names disabled on that line ("ALL" included).
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: rule names disabled for the whole file.
    file_suppressions: Set[str] = field(default_factory=set)

    @property
    def segments(self) -> Tuple[str, ...]:
        """Path parts relative to the root — the rule-scoping key."""
        return tuple(self.rel_path.split("/"))

    def in_packages(self, packages: FrozenSet[str]) -> bool:
        """True when any path segment (bar the filename) names a package."""
        return any(part in packages for part in self.segments[:-1])

    def is_suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions or "ALL" in self.file_suppressions:
            return True
        on_line = self.line_suppressions.get(line)
        return on_line is not None and (rule in on_line or "ALL" in on_line)


def _extract_suppressions(
    text: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    per_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comments: List[Tuple[int, str]] = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:
        comments = []
    for line, comment in comments:
        match = _DIRECTIVE_RE.search(comment)
        if match is None:
            continue
        rules = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        if match.group("kind") == "disable-file":
            whole_file |= rules
        else:
            per_line.setdefault(line, set()).update(rules)
    return per_line, whole_file


def parse_module(path: Path, root: Path) -> SourceModule:
    """Parse one file into a :class:`SourceModule`.

    Raises :class:`SyntaxError` for files Python itself cannot parse —
    the engine converts that into a PQ000 finding rather than dying.
    """
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    per_line, whole_file = _extract_suppressions(text)
    return SourceModule(
        path=path,
        rel_path=path.relative_to(root).as_posix(),
        text=text,
        tree=tree,
        line_suppressions=per_line,
        file_suppressions=whole_file,
    )
