"""Execution-context propagation over the project call graph.

The PQ1xx rules care about *where* code runs, not just what it does:

* **async context** — functions transitively reachable from an
  ``async def`` in ``repro.service`` run on the event loop, where one
  blocking call stalls every connection (PQ101);
* **lock scope** — statements lexically inside ``with <x>._lock:`` hold
  a ``threading.Lock``, which must never span an ``await`` (PQ105) and
  is what makes an obs-instrument mutation legal (PQ102).

:func:`propagate` runs one BFS per root set over the
:class:`~anlz.callgraph.ProjectIndex` edges and records, for each
reached function, the shortest call chain back to its root — the rules
put that chain in the finding message so a violation three modules away
from the ``async def`` is still actionable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from anlz.callgraph import (
    FunctionInfo,
    ProjectIndex,
    dotted_name,
    walk_shallow,
)

__all__ = [
    "ContextMap",
    "Reach",
    "async_roots",
    "lock_scopes",
    "propagate",
]


@dataclass(frozen=True)
class Reach:
    """How a function was reached: its root and the call chain from it."""

    root: FunctionInfo
    chain: Tuple[str, ...]

    def describe(self, site: str) -> str:
        """``root -> a -> b -> site`` for finding messages."""
        hops = [self.root.short, *self.chain, site]
        return " -> ".join(hops)


class ContextMap:
    """Reachability result: function qualname -> shortest :class:`Reach`."""

    def __init__(self, reached: Dict[str, Reach]) -> None:
        self._reached = reached

    def __contains__(self, qualname: str) -> bool:
        return qualname in self._reached

    def reach(self, qualname: str) -> Optional[Reach]:
        return self._reached.get(qualname)

    def items(self) -> Iterable[Tuple[str, Reach]]:
        return self._reached.items()


def propagate(index: ProjectIndex, roots: Iterable[FunctionInfo]) -> ContextMap:
    """BFS the call graph from ``roots``, keeping shortest chains.

    Both "call" and "ref" edges are followed: a function passed as an
    argument (``loop.call_soon(f)``) is treated as invoked in the same
    context as the call site that shipped it.
    """
    reached: Dict[str, Reach] = {}
    queue: List[str] = []
    for root in roots:
        if root.qualname not in reached:
            reached[root.qualname] = Reach(root=root, chain=())
            queue.append(root.qualname)
    while queue:
        qual = queue.pop(0)
        here = reached[qual]
        for edge in index.calls.get(qual, ()):  # already resolved edges
            if edge.callee in reached:
                continue
            callee = index.functions.get(edge.callee)
            if callee is None:
                continue
            reached[edge.callee] = Reach(
                root=here.root, chain=(*here.chain, callee.short)
            )
            queue.append(edge.callee)
    return ContextMap(reached)


def async_roots(
    index: ProjectIndex, package: str = "service"
) -> List[FunctionInfo]:
    """Every ``async def`` defined under the given package segment."""
    roots = [
        info
        for info in index.functions.values()
        if info.is_async and package in info.module.segments[:-1]
    ]
    return sorted(roots, key=lambda info: info.qualname)


def _is_threading_lock_expr(
    index: ProjectIndex, owner: FunctionInfo, expr: ast.AST
) -> bool:
    """Does a ``with`` context expression look like a threading lock?

    Matches the shapes the tree uses: an attribute or name whose final
    segment is ``lock``/``_lock`` (``self._lock``, ``mine._lock``), a
    direct ``threading.Lock()``/``RLock()`` call, or a local name bound
    to one.  ``asyncio.Lock`` never matches — those are acquired with
    ``async with``, which the callers of this helper skip.
    """
    if isinstance(expr, ast.Call):
        dotted = index.canonical_call(owner.module, expr)
        return dotted in ("threading.Lock", "threading.RLock")
    dotted = dotted_name(expr)
    if dotted is None:
        return False
    tail = dotted.rsplit(".", 1)[-1].lower()
    return tail in ("lock", "_lock") or tail.endswith("_lock")


def lock_scopes(
    index: ProjectIndex, owner: FunctionInfo
) -> Iterator[Tuple[ast.With, ast.AST]]:
    """Yield ``(with_node, lock_expr)`` for sync lock-holding blocks.

    Only synchronous ``with`` statements count: ``async with`` wraps
    asyncio primitives, which are await-safe by construction.
    """
    for node in walk_shallow(owner.node):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            if _is_threading_lock_expr(index, owner, item.context_expr):
                yield node, item.context_expr
                break
