"""In-memory spans around the calls into each layer, and the ledger they add up to.

The benchmark measures every layer **from outside**: a traced pass wraps
each call into a public ``repro`` function in a span (name, start, end,
parent, run id), kept in a list and written out only when the run ends.
A span's *self time* is its duration minus the part of that interval its
child spans cover; the root span's self time is the wall no layer
accounts for, reported as ``ledger.unattributed_s`` instead of being
folded into an "other" row.  Untraced passes use :data:`NO_TRACE`, which
records nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


class Tracer:
    """Records nested spans on one thread (the benchmark's client side)."""

    def __init__(
        self, run_id: str, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._clock = clock
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, self._clock(), float("nan"), parent, self.run_id)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._open.pop()

    def dump(self) -> List[Dict[str, Any]]:
        return [asdict(span) for span in self.spans]


class _NoTracer:
    """The untraced passes' tracer: ``span()`` is a shared no-op context."""

    _null = nullcontext()

    def span(self, name: str) -> Any:
        return self._null


NO_TRACE = _NoTracer()


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: duration minus what its (possibly overlapping) children cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


@dataclass
class Ledger:
    """Where one traced pass's wall went."""

    wall_s: float
    #: self seconds per span name (the root span excluded).
    by_name: Dict[str, float]
    #: the root span's own self time: wall no layer span accounts for.
    unattributed_s: float

    @property
    def unattributed_frac(self) -> float:
        return self.unattributed_s / self.wall_s if self.wall_s else 0.0

    def by_layer(self) -> Dict[str, float]:
        """Self seconds per layer (the span name up to its first dot)."""
        layers: Dict[str, float] = {}
        for name, seconds in self.by_name.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def split(self, name: str, parts: Mapping[str, float], remainder: str) -> None:
        """Re-attribute part of ``name``'s self time to finer rows.

        Used for the ``pq_ingest_stage_*`` histogram sums, which time
        disjoint sections *inside* the ``engine.drive`` span: they are
        taken out of that span's self time and what is left is booked
        under ``remainder``, so the ledger total does not change.
        """
        whole = self.by_name.pop(name, 0.0)
        for part, seconds in parts.items():
            self.by_name[part] = self.by_name.get(part, 0.0) + seconds
        self.by_name[remainder] = (
            self.by_name.get(remainder, 0.0) + whole - sum(parts.values())
        )


def build_ledger(spans: Sequence[Span]) -> Ledger:
    """Fold one pass's spans (exactly one root) into a :class:`Ledger`."""
    roots = [span for span in spans if span.parent is None]
    if len(roots) != 1:
        raise ValueError(f"a pass has exactly one root span, found {len(roots)}")
    root = roots[0]
    own = self_times(spans)
    by_name: Dict[str, float] = {}
    for span in spans:
        if span is not root:
            by_name[span.name] = by_name.get(span.name, 0.0) + own[span.id]
    return Ledger(root.end - root.start, by_name, own[root.id])
