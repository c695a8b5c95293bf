"""Columnar compiled snapshots: the one interval-query kernel.

Every time-window query — one interval or a batch, asynchronous or
data-plane-triggered, on a live port or a reopened store — is answered
here, through :meth:`AnalysisProgram.query_time_windows` and
:meth:`AnalysisProgram.query_time_windows_batch`.  The scalar walk
(:func:`repro.experiments.runner.query_time_windows_scalar`) visits every
retained ``(tts, flow)`` cell of every covering window in a per-cell
Python loop; it is faithful to Algorithms 2-3, easy to audit, reached by
no production path, and kept as the executable specification this
module is tested against.

This module compiles each :class:`~repro.core.analysis.TimeWindowSnapshot`
**once** into a columnar form and answers interval queries with array
kernels:

* :func:`compile_snapshot` turns each filtered window into a sorted
  ``int64`` TTS array plus its flow-index column, still indexing the
  window's own flow table.  The compiled form is cached on the snapshot
  object itself — snapshots are immutable once stored, so one
  compilation serves every future plan.
* :class:`CompiledQueryPlan` interns each distinct flow table once into
  one plan-wide table — the first table is adopted as it is, so a plan
  over one port's snapshots (which all index the port's table) does no
  per-flow work at all — and chains every snapshot's windows newest
  first.
  ``query_batch`` walks all victims down that chain in lock step (one
  ``np.searchsorted`` pair per window), expands the hit ranges once, and
  sums them with a single in-order ``np.bincount`` over
  ``victim * F + flow`` slots, a bounded number of cells per pass.

**Equivalence argument.**  The plan performs *the same* piece-splitting
walk as the scalar path (newest snapshot first; within a snapshot,
window 0 first with each deeper window's coverage clamped below the
previous one; every time point attributed to exactly one window), with
the coverage chain precomputed at compile time from the same integer
arithmetic.  The lock-step walk keeps each victim's pieces adjacent and
replaces a split piece by its left then its right remainder — the order
the scalar walk appends leftovers in — so a victim's hit ranges come out
in the order the scalar walk reaches them.  Per hit range,
``searchsorted`` selects exactly the cells the scalar ``bisect`` loop
visits, in the same TTS order.  ``np.bincount`` with weights is a
sequential ``out[slot[i]] += weight[i]`` over a zeroed array, so every
(victim, flow) slot receives the same IEEE-754 double additions, on the
same operands, from 0.0, in the same order as the scalar
``FlowEstimate.add`` calls — fractional cells included.  The result dict
is materialised in *first-touch* order (the order the scalar walk
inserts flows): the first position touching each slot is a
``np.minimum.at`` over positions, which numpy defines for repeated
indices, and only the touched slots — not the cells — are sorted by it.
Results are therefore bit-identical, not merely close;
``tests/test_queryplan.py`` asserts exact equality of contents and
iteration order with fractional cells both on and off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.queries import FlowEstimate, QueryInterval

if TYPE_CHECKING:
    from repro.core.analysis import TimeWindowSnapshot

__all__ = [
    "CompiledWindow",
    "CompiledSnapshot",
    "CompiledQueryPlan",
    "PlanBuildStats",
    "compile_snapshot",
]


@dataclass
class PlanBuildStats:
    """Per-snapshot compile cache accounting for one plan build."""

    snapshot_hits: int = 0
    snapshot_misses: int = 0


class CompiledWindow:
    """Columnar form of one :class:`~repro.core.filtering.FilteredWindow`.

    ``flow_idx`` indexes ``table``: the window's own flow table in a
    compiled snapshot, the plan's in a plan.

    ``cov_start``/``cov_end`` already carry the snapshot's
    ``valid_from_ns`` clamp *and* the newer-window clamp of the scalar
    walk, so at query time a window claims exactly the pieces the scalar
    path would hand it.  Windows the scalar path skips entirely (no
    coverage, coverage emptied by the clamp, non-positive coefficient)
    are not compiled at all.  A window with coverage but zero retained
    cells *is* compiled: it still claims its pieces, contributing
    nothing — the same attribution the scalar path produces.
    """

    __slots__ = (
        "window_index",
        "shift",
        "cov_start",
        "cov_end",
        "tts",
        "flow_idx",
        "table",
        "coefficient",
        "inv_coefficient",
    )

    def __init__(
        self,
        window_index: int,
        shift: int,
        cov_start: int,
        cov_end: int,
        tts: np.ndarray,
        flow_idx: np.ndarray,
        table: Sequence,
        coefficient: float,
    ) -> None:
        self.window_index = window_index
        self.shift = shift
        self.cov_start = cov_start
        self.cov_end = cov_end
        self.tts = tts
        self.flow_idx = flow_idx
        self.table = table
        self.coefficient = coefficient
        # The scalar path computes `1.0 / coefficient` per cell; the value
        # is cell-independent, so hoist the division out of the kernel.
        self.inv_coefficient = 1.0 / coefficient


class CompiledSnapshot:
    """One snapshot's compiled windows."""

    __slots__ = ("read_time_ns", "windows", "num_cells")

    def __init__(self, read_time_ns: int, windows: List[CompiledWindow]) -> None:
        self.read_time_ns = read_time_ns
        self.windows = windows
        self.num_cells = sum(len(w.tts) for w in windows)


def compile_snapshot(
    snapshot: "TimeWindowSnapshot",
    k: int,
    coefficients: Sequence[float],
    apply_coefficients: bool = True,
    stats: Optional[PlanBuildStats] = None,
) -> CompiledSnapshot:
    """Compile (or fetch the cached compilation of) one snapshot.

    The result is memoised on the snapshot object keyed by everything the
    compilation depends on, so re-planning after a new poll only compiles
    the snapshot that did not exist before.
    """
    key = (k, bool(apply_coefficients), tuple(coefficients))
    cached = getattr(snapshot, "_columnar_cache", None)
    if cached is not None and cached[0] == key:
        if stats is not None:
            stats.snapshot_hits += 1
        return cached[1]
    if stats is not None:
        stats.snapshot_misses += 1

    windows: List[CompiledWindow] = []
    newer_start: Optional[int] = None
    for fw in snapshot.windows:
        cov = fw.coverage_ns(k)
        if cov is None:
            continue
        cov_start = max(cov[0], snapshot.valid_from_ns)
        cov_end = cov[1] if newer_start is None else min(cov[1], newer_start)
        newer_start = cov_start
        if cov_end <= cov_start:
            continue
        coefficient = (
            coefficients[fw.window_index] if apply_coefficients else 1.0
        )
        if coefficient <= 0:
            continue
        windows.append(
            CompiledWindow(
                fw.window_index,
                fw.shift,
                cov_start,
                cov_end,
                fw.tts_array,
                fw.flow_idx,
                fw.flow_table,
                coefficient,
            )
        )
    compiled = CompiledSnapshot(snapshot.read_time_ns, windows)
    try:
        snapshot._columnar_cache = (key, compiled)
    except AttributeError:
        pass  # slotted / frozen stand-ins: still correct, just uncached
    return compiled


#: Most cells one accumulation pass expands, and the most ``victims x
#: flows`` accumulator slots it allocates: a batch is cut into passes at
#: victim boundaries, so scratch stays a few MB however many victims are
#: asked about.  A victim that alone exceeds the budget gets its own pass.
_CELL_BUDGET = 1 << 17


_INT64_MIN = int(np.iinfo(np.int64).min)
_INT64_MAX = int(np.iinfo(np.int64).max)


def _int64_column(values: List[int]) -> np.ndarray:
    """Interval endpoints as ``int64``, clamped to that domain.

    Timestamps are ``int64``, so every cell and every coverage bound lies
    inside it: an endpoint beyond it claims exactly the cells the
    clamped one does.
    """
    if min(values) < _INT64_MIN or max(values) > _INT64_MAX:
        values = [min(max(v, _INT64_MIN), _INT64_MAX) for v in values]
    return np.array(values, dtype=np.int64)


class _Segments(NamedTuple):
    """Hit ranges of a walk: segment ``j`` is cells ``[a[j], b[j])`` of
    window ``win[j]``, claimed for victim ``vid[j]`` over ``[lo[j], hi[j])``."""

    vid: np.ndarray
    win: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


class CompiledQueryPlan:
    """A set of compiled snapshots sharing one global flow interning.

    Build once per snapshot-store version, then answer any number of
    interval queries against it.  The windows of every snapshot form one
    newest-first chain; their cell columns are concatenated so a hit
    range anywhere in the chain is a slice of one array.  Queries hold no
    state on the plan besides :attr:`queries_answered`.
    """

    def __init__(
        self,
        flows: List,
        snapshots: List[List[CompiledWindow]],
    ) -> None:
        #: global interned flow table: index -> flow key
        self.flows = flows
        self._flow_objects = np.empty(len(flows), dtype=object)
        self._flow_objects[:] = flows
        self._num_snapshots = len(snapshots)
        #: the (snapshot, window) chain in the scalar walk's visiting order
        self._windows = [w for windows in snapshots for w in windows]
        sizes = [len(w.tts) for w in self._windows]
        self.num_cells = sum(sizes)
        #: offset of each window's cells in the concatenated columns
        self._base = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        self._flow_idx = np.concatenate(
            [w.flow_idx for w in self._windows] + [np.empty(0, dtype=np.intp)]
        )
        self._tts = np.concatenate(
            [w.tts for w in self._windows] + [np.empty(0, dtype=np.int64)]
        )
        self._shift = np.array([w.shift for w in self._windows], dtype=np.int64)
        #: per-window coverage columns: one overlap test picks the windows
        #: a single victim can reach (:meth:`_walk_one`)
        self._cov_start = np.array(
            [w.cov_start for w in self._windows], dtype=np.int64
        )
        self._cov_end = np.array([w.cov_end for w in self._windows], dtype=np.int64)
        self._coefficient = np.array([w.coefficient for w in self._windows])
        self._inv_coefficient = np.array(
            [w.inv_coefficient for w in self._windows]
        )
        self._dense: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: total victims answered through this plan
        self.queries_answered = 0

    @classmethod
    def build(
        cls,
        snapshots_newest_first: Sequence,
        k: int,
        coefficients: Sequence[float],
        apply_coefficients: bool = True,
        stats: Optional[PlanBuildStats] = None,
    ) -> "CompiledQueryPlan":
        """Compile ``snapshots_newest_first`` into one plan.

        The caller provides the snapshots in *query order* (newest read
        time first, ties in the same order the scalar walk visits them);
        the plan preserves that order exactly.

        Flow tables are interned once each, keyed by identity: the first
        table met is adopted as the plan's, its indices standing as they
        are, and every other table is translated into it once.  A plan
        over one port's snapshots — which all index the port's one table
        — therefore does no per-flow work; a reopened file's per-frame
        tables cost one translation each.  Answers do not depend on the
        interning, since cells are summed and ordered by position; a flow
        table never lists a flow twice.
        """
        flows: List = []
        index_of: Optional[Dict] = None
        #: id(table) -> its translation into ``flows`` (None: adopted)
        lookups: Dict[int, Optional[np.ndarray]] = {}
        plan_snapshots: List[List[CompiledWindow]] = []
        for snapshot in snapshots_newest_first:
            cs = compile_snapshot(
                snapshot, k, coefficients, apply_coefficients, stats=stats
            )
            windows: List[CompiledWindow] = []
            for w in cs.windows:
                key = id(w.table)
                if key not in lookups:
                    if not lookups:
                        flows = list(w.table)
                        lookups[key] = None
                    else:
                        if index_of is None:
                            index_of = {flow: i for i, flow in enumerate(flows)}
                        lookup = np.empty(len(w.table), dtype=np.intp)
                        for t, flow in enumerate(w.table):
                            g = index_of.get(flow)
                            if g is None:
                                g = index_of[flow] = len(flows)
                                flows.append(flow)
                            lookup[t] = g
                        lookups[key] = lookup
                lookup = lookups[key]
                if lookup is not None and len(w.flow_idx):
                    w = CompiledWindow(
                        w.window_index,
                        w.shift,
                        w.cov_start,
                        w.cov_end,
                        w.tts,
                        lookup[w.flow_idx],
                        flows,
                        w.coefficient,
                    )
                windows.append(w)
            plan_snapshots.append(windows)
        return cls(flows, plan_snapshots)

    def __len__(self) -> int:
        return self._num_snapshots

    # -- query execution ---------------------------------------------------

    def query(
        self, interval: QueryInterval, fractional_cells: bool = False
    ) -> FlowEstimate:
        """One interval query; identical contents to the scalar path."""
        return self.query_batch([interval], fractional_cells)[0]

    def query_batch(
        self,
        intervals: Sequence[QueryInterval],
        fractional_cells: bool = False,
    ) -> List[FlowEstimate]:
        """Answer many victims against the same compiled state.

        One lock-step walk finds every victim's hit ranges; they are then
        accumulated in passes of at most ``_CELL_BUDGET`` cells, each pass
        a whole number of victims.
        """
        n = len(intervals)
        self.queries_answered += n
        if n == 0:
            return []
        if n == 1:
            # One victim is one pass over its own few pieces: walking
            # them as Python ints skips the per-window array overhead.
            return self._accumulate(
                self._walk_one(intervals[0]), 0, 1, fractional_cells
            )
        segments = self._walk(
            _int64_column([iv.start_ns for iv in intervals]),
            _int64_column([iv.end_ns for iv in intervals]),
        )
        # The walk emits segments window by window; grouping them by
        # victim (stably, so each victim keeps the walk's order) makes
        # every pass a contiguous slice.
        by_victim = np.argsort(segments.vid, kind="stable")
        segments = _Segments(*(column[by_victim] for column in segments))
        first_segment = np.searchsorted(segments.vid, np.arange(n + 1))
        cells_before = np.concatenate(
            ([0], np.cumsum(segments.b - segments.a))
        )[first_segment]
        max_rows = max(1, _CELL_BUDGET // max(1, len(self._dense_flows()[1])))
        out: List[FlowEstimate] = []
        v0 = 0
        while v0 < n:
            v1 = int(
                np.searchsorted(
                    cells_before, cells_before[v0] + _CELL_BUDGET, side="right"
                )
            ) - 1
            v1 = min(max(v1, v0 + 1), v0 + max_rows, n)
            s0, s1 = int(first_segment[v0]), int(first_segment[v1])
            out.extend(
                self._accumulate(
                    _Segments(*(column[s0:s1] for column in segments)),
                    v0,
                    v1 - v0,
                    fractional_cells,
                )
            )
            v0 = v1
        return out

    def _dense_flows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cell flow column renumbered over the flows the cells touch,
        and those flows, built on the first multi-victim pass.

        A batch's accumulator slots are victims x flows, and the plan's
        table can hold many flows no retained cell touches (the port's
        whole table, past retention): numbering only the touched ones
        keeps that work and the victims a pass can hold proportional to
        the flows the snapshots actually hold.  A single victim's slots
        stay over the plan's table, which costs it less than this
        renumbering would.
        """
        if self._dense is None:
            seen = np.zeros(len(self.flows), dtype=bool)
            seen[self._flow_idx] = True
            kept = np.flatnonzero(seen)
            dense = np.empty(len(self.flows), dtype=np.intp)
            dense[kept] = np.arange(len(kept))
            self._dense = (dense[self._flow_idx], self._flow_objects[kept])
        return self._dense

    def _walk(self, start: np.ndarray, end: np.ndarray) -> _Segments:
        """Split every victim's interval down the window chain at once.

        The array form of the specification's per-snapshot piece split
        (``experiments/runner.py::query_time_windows_scalar``): the
        pieces of all victims still uncovered sit in ``vid/start/end``,
        each victim's pieces adjacent and in the scalar walk's order.  A
        window claims ``[lo, hi)`` of every piece it overlaps and leaves
        ``[start, lo)`` then ``[hi, end)`` in that piece's place, which
        is the order the scalar walk appends its leftovers in.
        """
        vid = np.arange(len(start), dtype=np.intp)
        found: List[Tuple[np.ndarray, ...]] = []
        for win, w in enumerate(self._windows):
            lo = np.maximum(start, w.cov_start)
            hi = np.minimum(end, w.cov_end)
            hit = hi > lo
            claimed = np.flatnonzero(hit)
            if not len(claimed):
                continue
            lo_hit, hi_hit = lo[claimed], hi[claimed]
            # Cells overlapping [lo, hi): first whose end exceeds lo
            # through last whose start precedes hi - the same range the
            # scalar bisect loop visits, in the same TTS order.
            a = np.searchsorted(w.tts, lo_hit >> w.shift, side="left")
            b = np.searchsorted(w.tts, (hi_hit - 1) >> w.shift, side="right")
            some = np.flatnonzero(b > a)
            if len(some):
                found.append(
                    (
                        vid[claimed[some]],
                        np.full(len(some), win, dtype=np.intp),
                        a[some],
                        b[some],
                        lo_hit[some],
                        hi_hit[some],
                    )
                )
            # Two slots per piece, (start, lo-or-end) and (hi, end); a
            # piece the window missed keeps the first slot whole.
            keep = np.column_stack((~hit | (start < lo), hit & (hi < end))).ravel()
            start = np.column_stack((start, hi)).ravel()[keep]
            end = np.column_stack((np.where(hit, lo, end), end)).ravel()[keep]
            vid = np.repeat(vid, 2)[keep]
            if not len(vid):
                break
        if not found:
            return _Segments(*np.empty((6, 0), dtype=np.intp))
        return _Segments(*(np.concatenate(column) for column in zip(*found)))

    def _walk_one(self, interval: QueryInterval) -> _Segments:
        """:meth:`_walk` for a single victim, on Python ints.

        Mirrors the specification's piece split piece for piece; the
        coverage clamps were already applied at compile time.  Only the
        windows whose coverage overlaps the interval are visited: every
        piece lies inside the interval, so a window that misses the whole
        interval claims none of them.
        """
        start, end = _int64_column([interval.start_ns, interval.end_ns])
        reached = np.flatnonzero((self._cov_start < end) & (self._cov_end > start))
        pieces = [(interval.start_ns, interval.end_ns)]
        found: List[Tuple[int, ...]] = []
        windows = self._windows
        for win in reached.tolist():
            w = windows[win]
            cov_start, cov_end, shift, tts = w.cov_start, w.cov_end, w.shift, w.tts
            leftovers: List[Tuple[int, int]] = []
            for piece_start, piece_end in pieces:
                lo = max(piece_start, cov_start)
                hi = min(piece_end, cov_end)
                if hi <= lo:
                    leftovers.append((piece_start, piece_end))
                    continue
                a = int(tts.searchsorted(lo >> shift, side="left"))
                b = int(tts.searchsorted((hi - 1) >> shift, side="right"))
                if b > a:
                    found.append((0, win, a, b, lo, hi))
                if piece_start < lo:
                    leftovers.append((piece_start, lo))
                if hi < piece_end:
                    leftovers.append((hi, piece_end))
            pieces = leftovers
            if not pieces:
                break
        return _Segments(*np.array(found, dtype=np.int64).reshape(-1, 6).T)

    def _accumulate(
        self,
        segments: _Segments,
        first_victim: int,
        rows: int,
        fractional_cells: bool,
    ) -> List[FlowEstimate]:
        """Expand the segments of ``rows`` consecutive victims and sum them.

        Cells are laid out victim by victim in the scalar walk's order, so
        the in-order ``bincount`` below performs, for every (victim, flow)
        slot, the additions ``FlowEstimate.add`` would, from 0.0, in the
        same order.
        """
        lengths = segments.b - segments.a
        total = int(lengths.sum())
        if total == 0:
            return [FlowEstimate() for _ in range(rows)]
        position = np.arange(total)
        win = segments.win
        cell = (
            np.repeat(
                self._base[win] + segments.a - (np.cumsum(lengths) - lengths),
                lengths,
            )
            + position
        )
        if rows > 1:
            flow_idx, flow_objects = self._dense_flows()
        else:
            flow_idx, flow_objects = self._flow_idx, self._flow_objects
        num_flows = len(flow_objects)
        slot = (
            np.repeat((segments.vid - first_victim) * num_flows, lengths)
            + flow_idx[cell]
        )
        if fractional_cells:
            shift = np.repeat(self._shift[win], lengths)
            span = np.left_shift(1, shift)
            cell_start = self._tts[cell] << shift
            overlap = np.minimum(
                cell_start + span, np.repeat(segments.hi, lengths)
            ) - np.maximum(cell_start, np.repeat(segments.lo, lengths))
            # Two divisions, exactly as the scalar path:
            # (overlap / span) first, then / coefficient.
            weight = (overlap / span) / np.repeat(self._coefficient[win], lengths)
        else:
            weight = np.repeat(self._inv_coefficient[win], lengths)
        sums = np.bincount(slot, weights=weight, minlength=rows * num_flows)
        # First-touch order, not sorted order: the scalar path inserts
        # each flow into its dict the first time a cell touches it, and
        # downstream metrics sum dict values in insertion order.  The
        # minimum over positions is well defined under repeated indices
        # (a fancy assignment is not).
        first_touch = np.full(rows * num_flows, total, dtype=np.intp)
        np.minimum.at(first_touch, slot, position)
        touched = np.flatnonzero(first_touch < total)
        touched = touched[np.argsort(first_touch[touched])]
        row, flow = np.divmod(touched, num_flows)
        flows = flow_objects[flow].tolist()
        values = sums[touched].tolist()
        bounds = np.searchsorted(row, np.arange(rows + 1)).tolist()
        return [
            FlowEstimate(dict(zip(flows[s:e], values[s:e])))
            for s, e in zip(bounds, bounds[1:])
        ]
