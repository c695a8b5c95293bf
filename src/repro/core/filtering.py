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

    The retained cells exist in up to three interchangeable
    representations, materialised lazily on first access so each
    consumer pays only for the view it reads:

    * ``cells`` — ``(tts, flow)`` tuples sorted by TTS (the scalar query
      walk bisects these).  A cell's absolute time coverage is
      ``[tts << shift, (tts + 1) << shift)``.
    * ``tts_array`` / ``cell_flows`` — the same cells columnar: a sorted
      ``int64`` TTS array and the aligned flow-object list (the compiled
      query plan and the store encoder consume these).
    * ``flow_idx`` / ``flow_table`` — fully index-based: an ``int``
      column into a shared flow table.  This is what
      :func:`filter_windows` (the registers are index arrays) and
      zero-copy PQSTORE1 decodes produce; the compiled plan interns it
      vectorised without touching per-cell objects.

    Construction accepts any of the three (``cells`` alone, columnar
    ``tts_array`` + ``cell_flows``, or ``tts_array`` + ``flow_idx`` +
    ``flow_table``); every other view derives on demand.  Equality and
    repr match the historical dataclass: ``(window_index, shift, cells,
    reference_tts)``, regardless of which representation was supplied.

    ``window_index`` is which of the T windows this is; ``shift`` the
    right-shift from nanoseconds to its TTS domain
    (``m0 + alpha * window_index``); ``reference_tts`` the TTS anchoring
    it (latest cell for window 0, derived for deeper windows; None when
    the whole set was empty).
    """

    __slots__ = (
        "window_index",
        "shift",
        "reference_tts",
        "_cells",
        "_tts_array",
        "_cell_flows",
        "_flow_idx",
        "_flow_table",
    )

    def __init__(
        self,
        window_index: int,
        shift: int,
        cells: Optional[List[Tuple[int, FlowKey]]] = None,
        reference_tts: Optional[int] = None,
        tts_array: Optional[np.ndarray] = None,
        cell_flows: Optional[List[FlowKey]] = None,
        *,
        flow_idx: Optional[np.ndarray] = None,
        flow_table: Optional[Sequence[FlowKey]] = None,
    ) -> None:
        if cells is None and tts_array is None:
            raise ValueError("FilteredWindow needs cells or tts_array")
        if cells is None and cell_flows is None and flow_idx is None:
            raise ValueError(
                "FilteredWindow needs cells, cell_flows, or flow_idx"
            )
        if flow_idx is not None and flow_table is None:
            raise ValueError("flow_idx requires flow_table")
        self.window_index = window_index
        self.shift = shift
        self.reference_tts = reference_tts
        self._cells = cells
        self._tts_array = tts_array
        self._cell_flows = cell_flows
        self._flow_idx = flow_idx
        self._flow_table = flow_table

    # -- lazy views --------------------------------------------------------

    @property
    def cells(self) -> List[Tuple[int, FlowKey]]:
        """``(tts, flow)`` tuples, sorted by TTS (derived on demand)."""
        if self._cells is None:
            self._cells = list(zip(self.tts_array.tolist(), self.cell_flows))
        return self._cells

    @property
    def tts_array(self) -> np.ndarray:
        """Sorted int64 TTS column (derived from ``cells`` on demand)."""
        if self._tts_array is None:
            cells = self._cells
            assert cells is not None
            self._tts_array = np.fromiter(
                (c[0] for c in cells), dtype=np.int64, count=len(cells)
            )
        return self._tts_array

    @property
    def cell_flows(self) -> List[FlowKey]:
        """Aligned flow objects (resolved through the table on demand)."""
        if self._cell_flows is None:
            if self._flow_idx is not None:
                table = self._flow_table
                assert table is not None
                self._cell_flows = [table[j] for j in self._flow_idx.tolist()]
            else:
                cells = self._cells
                assert cells is not None
                self._cell_flows = [c[1] for c in cells]
        return self._cell_flows

    @property
    def flow_idx(self) -> Optional[np.ndarray]:
        """Int flow-index column (None unless built index-based)."""
        return self._flow_idx

    @property
    def flow_table(self) -> Optional[Sequence[FlowKey]]:
        """The shared flow table ``flow_idx`` points into."""
        return self._flow_table

    @property
    def cell_count(self) -> int:
        """Number of retained cells, without materialising any view."""
        if self._tts_array is not None:
            return len(self._tts_array)
        cells = self._cells
        assert cells is not None
        return len(cells)

    # -- dataclass-compatible surface --------------------------------------

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

    #: mirror the eq-without-frozen dataclass this class replaced
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
        return [
            FilteredWindow(
                i,
                config.shift(i),
                [],
                None,
                tts_array=np.empty(0, dtype=np.int64),
                cell_flows=[],
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
        fw = FilteredWindow(
            i,
            config.shift(i),
            None,
            tts,
            tts_array=tts_array,
            flow_idx=window.flow_idx[np.concatenate((tail, head))],
            flow_table=window.table.flows,
        )
        out.append(fw)
        # Reference for the next (older, more compressed) window: the most
        # recently passed cell is one full window period back.
        tts = (tts - (1 << k)) >> config.alpha
        if tts < 0:
            tts = 0
    return out
