"""Stale-cell filtering (Algorithm 3).

Registers are never cleared in hardware, so a freshly read window mixes
live cells with leftovers from older cycles.  The filter locates the
latest cell of window 0 and then, per window, retains only the cells that
lie within one window period of that window's own reference point:

* cells at index ``<= Idx`` must carry the reference cycle ID,
* cells at index ``> Idx`` must carry the reference cycle ID minus one
  (written during the previous cycle but still within one window period).

The reference TTS of window ``i+1`` is derived from window ``i``'s as
``(TTS - 2^k) >> alpha`` — the most recently *passed* cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import PrintQueueConfig
from repro.core.timewindow import EMPTY, TimeWindow
from repro.switch.packet import FlowKey


@dataclass
class FilterStats:
    """Running totals over Algorithm-3 filter passes (repro.obs).

    One instance accumulates across every poll of a run: ``cells_scanned``
    counts occupied cells in the frozen reads (registers are never
    cleared, so this includes stale leftovers), ``cells_retained`` counts
    the cells that survive the filter.
    """

    cells_scanned: int = 0
    cells_retained: int = 0

    @property
    def cells_discarded(self) -> int:
        """Stale cells the filter removed."""
        return self.cells_scanned - self.cells_retained


class FilteredWindow:
    """The live contents of one window after Algorithm 3.

    The retained cells are columnar: ``tts_array`` is their sorted
    ``int64`` TTS column and ``flow_idx`` the aligned int column into the
    shared ``flow_table`` (the port's flow table for a register read, the
    snapshot's decoded table for a PQSTORE1 frame).  The compiled query
    plan and the store encoder consume the columns directly; ``cells``
    is the derived ``(tts, flow)`` tuple view the scalar query walk
    bisects, built on first access.  A cell's absolute time coverage is
    ``[tts << shift, (tts + 1) << shift)``.

    ``window_index`` is which of the T windows this is; ``shift`` the
    right-shift from nanoseconds to its TTS domain
    (``m0 + alpha * window_index``); ``reference_tts`` the TTS anchoring
    it (latest cell for window 0, derived for deeper windows; None when
    the whole set was empty).  Equality and repr read
    ``(window_index, shift, cells, reference_tts)``.
    """

    __slots__ = (
        "window_index",
        "shift",
        "reference_tts",
        "tts_array",
        "flow_idx",
        "flow_table",
        "_cells",
    )

    def __init__(
        self,
        window_index: int,
        shift: int,
        reference_tts: Optional[int],
        tts_array: np.ndarray,
        flow_idx: np.ndarray,
        flow_table: Sequence[FlowKey],
    ) -> None:
        self.window_index = window_index
        self.shift = shift
        self.reference_tts = reference_tts
        self.tts_array = tts_array
        self.flow_idx = flow_idx
        self.flow_table = flow_table
        self._cells: Optional[List[Tuple[int, FlowKey]]] = None

    @property
    def cells(self) -> List[Tuple[int, FlowKey]]:
        """``(tts, flow)`` tuples, sorted by TTS (derived on demand)."""
        if self._cells is None:
            table = self.flow_table
            self._cells = [
                (tts, table[j])
                for tts, j in zip(self.tts_array.tolist(), self.flow_idx.tolist())
            ]
        return self._cells

    @property
    def cell_count(self) -> int:
        """Number of retained cells, without materialising ``cells``."""
        return len(self.tts_array)

    def with_columns(
        self, tts_array: np.ndarray, flow_idx: np.ndarray
    ) -> "FilteredWindow":
        """A copy holding other cells over the same flow table."""
        return FilteredWindow(
            self.window_index,
            self.shift,
            self.reference_tts,
            tts_array,
            flow_idx,
            self.flow_table,
        )

    def __repr__(self) -> str:
        return (
            f"FilteredWindow(window_index={self.window_index!r}, "
            f"shift={self.shift!r}, cells={self.cells!r}, "
            f"reference_tts={self.reference_tts!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        assert isinstance(other, FilteredWindow)
        return (
            self.window_index == other.window_index
            and self.shift == other.shift
            and self.cells == other.cells
            and self.reference_tts == other.reference_tts
        )

    #: eq without hash, like a non-frozen dataclass
    __hash__ = None  # type: ignore[assignment]

    def coverage_ns(self, k: int) -> Optional[Tuple[int, int]]:
        """Absolute [start, end) time range this window can speak for."""
        if self.reference_tts is None:
            return None
        end = (self.reference_tts + 1) << self.shift
        start = end - ((1 << k) << self.shift)
        return max(0, start), end


def filter_windows(
    windows: Sequence[TimeWindow],
    config: PrintQueueConfig,
    stats: Optional[FilterStats] = None,
) -> List[FilteredWindow]:
    """Apply Algorithm 3 to a snapshot of all T windows.

    ``stats``, when given, accumulates scanned/retained cell counts for
    this pass (the per-poll stale-filter observability counters).
    """
    if len(windows) != config.T:
        raise ValueError(f"expected {config.T} windows, got {len(windows)}")
    k = config.k
    mask = (1 << k) - 1

    latest = windows[0].latest_cell()
    if latest is None:
        # Entire structure is empty; nothing survives.
        empty = np.empty(0, dtype=np.int64)
        return [
            FilteredWindow(
                i, config.shift(i), None, empty, empty, windows[i].table.flows
            )
            for i in range(config.T)
        ]

    tts = latest.tts(k)
    out: List[FilteredWindow] = []
    for i in range(config.T):
        window = windows[i]
        ref_index = tts & mask
        ref_cycle = tts >> k
        # Collect the previous cycle's tail first so the survivors come
        # out sorted by TTS (older entries have strictly smaller TTS).
        # The per-cell scans are vectorised and flow identity travels
        # onward as an index column: no Python runs per cell.
        cyc = window.cycle_ids
        if stats is not None:
            stats.cells_scanned += int(np.count_nonzero(cyc != EMPTY))
        prev_cycle = ref_cycle - 1
        prev_base = prev_cycle << k
        ref_base = ref_cycle << k
        if prev_cycle >= 0:
            tail = np.flatnonzero(cyc[ref_index + 1 :] == prev_cycle)
            tail += ref_index + 1
        else:
            tail = np.empty(0, dtype=np.intp)
        head = np.flatnonzero(cyc[: ref_index + 1] == ref_cycle)
        tts_array = np.concatenate(
            (
                tail.astype(np.int64) + np.int64(prev_base),
                head.astype(np.int64) + np.int64(ref_base),
            )
        )
        if stats is not None:
            stats.cells_retained += len(tts_array)
        out.append(
            FilteredWindow(
                i,
                config.shift(i),
                tts,
                tts_array,
                window.flow_idx[np.concatenate((tail, head))],
                window.table.flows,
            )
        )
        # Reference for the next (older, more compressed) window: the most
        # recently passed cell is one full window period back.
        tts = (tts - (1 << k)) >> config.alpha
        if tts < 0:
            tts = 0
    return out
