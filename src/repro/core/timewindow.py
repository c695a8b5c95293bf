"""A single time window: a ring-buffer register array of 2^k cells.

Each cell stores at most one packet record — its cycle ID and flow
identity.  The registers are two ``int64`` arrays, ``cycle_ids`` and
``flow_idx``: the paper's cells hold the flow ID bits, ours hold an index
into the port's :class:`~repro.switch.records.FlowTable` (the simulation
equivalent of the 5-tuple bits; its width is accounted in the SRAM
model), so a register read, the Algorithm-3 filter and the store encoder
are all array operations.

The mapping rule (Section 4.2): the ``k`` least-significant bits of the
window's trimmed timestamp (TTS) select the cell; the remaining high bits
are the cycle ID that disambiguates ring-buffer wrap-arounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.switch.packet import FlowKey
from repro.switch.records import FlowTable

#: Sentinel cycle ID for a never-written cell.
EMPTY = -1


@dataclass(frozen=True)
class CellRecord:
    """An occupied cell, as read out of a window."""

    index: int
    cycle_id: int
    flow: FlowKey

    def tts(self, k: int) -> int:
        """Reconstruct the trimmed timestamp this cell was written with."""
        return (self.cycle_id << k) | self.index


class TimeWindow:
    """One register array of ``2^k`` single-packet cells.

    ``table`` is the flow-interning table ``flow_idx`` points into — the
    port's, shared by every window of every bank; a window built without
    one (tests) gets its own.
    """

    __slots__ = ("k", "mask", "cycle_ids", "flow_idx", "table")

    def __init__(self, k: int, table: Optional[FlowTable] = None) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.mask = (1 << k) - 1
        self.cycle_ids = np.full(1 << k, EMPTY, dtype=np.int64)
        self.flow_idx = np.full(1 << k, -1, dtype=np.int64)
        self.table = FlowTable() if table is None else table

    def __len__(self) -> int:
        return 1 << self.k

    def reset(self) -> None:
        """Clear all cells (used by tests; hardware relies on filtering)."""
        self.cycle_ids.fill(EMPTY)
        self.flow_idx.fill(-1)

    def occupancy(self) -> int:
        """Number of occupied cells."""
        return int(np.count_nonzero(self.cycle_ids != EMPTY))

    def insert(self, tts: int, flow: FlowKey) -> "tuple[int, int, Optional[FlowKey]]":
        """Write a record; return ``(index, evicted_cycle_id, evicted_flow)``.

        The caller applies the passing rule to the evicted record.
        ``evicted_cycle_id`` is :data:`EMPTY` for a fresh cell.
        """
        index = tts & self.mask
        evicted = self.cell(index)
        self.cycle_ids[index] = tts >> self.k
        self.flow_idx[index] = self.table.intern(flow)
        if evicted is None:
            return index, EMPTY, None
        return index, evicted.cycle_id, evicted.flow

    def cell(self, index: int) -> Optional[CellRecord]:
        """Read one cell, or None if it has never been written."""
        cycle_id = self.cycle_ids.item(index)
        if cycle_id == EMPTY:
            return None
        return CellRecord(
            index, cycle_id, self.table.flows[self.flow_idx.item(index)]
        )

    def records(self) -> List[CellRecord]:
        """All occupied cells in index order."""
        flows = self.table.flows
        occupied = np.flatnonzero(self.cycle_ids != EMPTY)
        return [
            CellRecord(index, cycle_id, flows[fid])
            for index, cycle_id, fid in zip(
                occupied.tolist(),
                self.cycle_ids[occupied].tolist(),
                self.flow_idx[occupied].tolist(),
            )
        ]

    def latest_cell(self) -> Optional[CellRecord]:
        """The most recently written cell — max (cycle_id, index).

        This is the ``LatestCell()`` of Algorithm 3: since cycle IDs grow
        monotonically with time and, within a cycle, higher indices are
        written later, the lexicographic maximum identifies the newest
        record.
        """
        best_cycle = int(self.cycle_ids.max())
        if best_cycle == EMPTY:
            return None
        # Within the max cycle, the highest index was written last.
        best_index = int(np.flatnonzero(self.cycle_ids == best_cycle)[-1])
        return self.cell(best_index)

    def snapshot(self) -> "TimeWindow":
        """An independent copy (what a frozen register read returns)."""
        copy = TimeWindow.__new__(TimeWindow)
        copy.k = self.k
        copy.mask = self.mask
        copy.cycle_ids = self.cycle_ids.copy()
        copy.flow_idx = self.flow_idx.copy()
        copy.table = self.table
        return copy
