"""The queue monitor: a sparse stack of queue high-water marks (Section 5).

A register array with one entry per queue-depth level (divided by the
buffer allocation granularity).  Each entry has an upper half recording
the last depth *increase* that landed on the level and a lower half
recording the last *decrease*; both carry a monotonically increasing
sequence number.  A stack-top register tracks the latest depth.

Because entries under the top pointer may be stale (from an earlier,
taller peak that has since drained), queries walk the array bottom-up and
only accept increase entries whose sequence number exceeds every sequence
number seen at lower levels — exactly the filtering step described at the
end of Section 5.  The surviving entries are the *original culprits*: the
packets whose arrivals raised the queue to each still-standing level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.switch.packet import FlowKey
from repro.switch.records import FlowColumn

#: Sequence number of a never-written half-entry.
_UNSET = -1


@dataclass(frozen=True)
class MonitorEntry:
    """One surviving (valid) increase entry, as returned by a query."""

    level: int
    flow: FlowKey
    seq: int


@dataclass
class QueueMonitorSnapshot:
    """A frozen copy of the monitor taken by the control plane."""

    time_ns: int
    top: int
    inc_seq: List[int]
    inc_flow: List[Optional[FlowKey]]
    dec_seq: List[int]

    def walk(self) -> List[MonitorEntry]:
        """Filter stale entries: the monotone bottom-up walk of Section 5."""
        running = _UNSET
        survivors: List[MonitorEntry] = []
        for level in range(self.top + 1):
            inc = self.inc_seq[level]
            if inc > running and inc != _UNSET and level > 0:
                flow = self.inc_flow[level]
                assert flow is not None
                survivors.append(MonitorEntry(level, flow, inc))
            level_max = max(inc, self.dec_seq[level])
            if level_max > running:
                running = level_max
        return survivors

    def flow_counts(self) -> Dict[FlowKey, int]:
        """Original-culprit contribution per flow (entries implicated)."""
        counts: Dict[FlowKey, int] = {}
        for entry in self.walk():
            counts[entry.flow] = counts.get(entry.flow, 0) + 1
        return counts


class QueueMonitor:
    """The data-plane sparse stack for one (port, class-of-service) queue.

    Parameters
    ----------
    levels:
        Register length = max queue depth / granularity.
    granularity:
        Depth units folded into one level (buffer allocation granularity).
    """

    __slots__ = (
        "levels",
        "granularity",
        "_seq",
        "top",
        "inc_seq",
        "inc_flow",
        "dec_seq",
        "dec_flow",
        "overflows",
        "pushes",
        "drains",
        "high_water",
    )

    def __init__(self, levels: int, granularity: int = 1) -> None:
        if levels < 1:
            raise ValueError(f"need at least one level, got {levels}")
        if granularity < 1:
            raise ValueError(f"non-positive granularity: {granularity}")
        self.levels = levels
        self.granularity = granularity
        self._seq = 0
        self.top = 0
        # Registers stay plain Python lists: snapshot() is then a cheap
        # pointer copy (the control plane snapshots every poll, and with
        # 2^16 levels re-boxing int64 arrays per snapshot costs more
        # than the whole batch write-back saves).  apply_batch only
        # ever writes the surviving entries, so the lists are touched
        # ~last-per-level, not per-event.
        self.inc_seq: List[int] = [_UNSET] * levels
        self.inc_flow: List[Optional[FlowKey]] = [None] * levels
        self.dec_seq: List[int] = [_UNSET] * levels
        self.dec_flow: List[Optional[FlowKey]] = [None] * levels
        self.overflows = 0
        # Observability (repro.obs): stack churn.  ``pushes``/``drains``
        # count the rise/drain sides of the event stream; ``high_water``
        # is the tallest level the stack top ever reached.  apply_batch
        # maintains identical values.
        self.pushes = 0
        self.drains = 0
        self.high_water = 0

    def _level_of(self, depth_units: int) -> int:
        level = depth_units // self.granularity
        if level >= self.levels:
            self.overflows += 1
            level = self.levels - 1
        return max(0, level)

    def on_enqueue(self, flow: FlowKey, depth_after_units: int) -> None:
        """A packet raised the queue depth to ``depth_after_units``."""
        self._seq += 1
        level = self._level_of(depth_after_units)
        self.inc_seq[level] = self._seq
        self.inc_flow[level] = flow
        self.top = level
        self.pushes += 1
        if level > self.high_water:
            self.high_water = level

    def on_dequeue(self, flow: FlowKey, depth_after_units: int) -> None:
        """A packet left, lowering the queue depth to ``depth_after_units``."""
        self._seq += 1
        level = self._level_of(depth_after_units)
        self.dec_seq[level] = self._seq
        self.dec_flow[level] = flow
        self.top = level
        self.drains += 1
        if level > self.high_water:
            self.high_water = level

    def apply_batch(
        self,
        is_enqueue: "np.ndarray",
        flows: FlowColumn,
        depth_after_units: "np.ndarray",
    ) -> None:
        """Vectorised replay of a mixed enqueue/dequeue event stream.

        Exactly equivalent to calling :meth:`on_enqueue` /
        :meth:`on_dequeue` once per event in order: sequence numbers are
        assigned by event position, each half-entry keeps the last event
        that landed on its level, and the stack top follows the final
        event.  ``flows`` is the per-event flow column; only the
        surviving events' flows are resolved to objects.
        """
        is_enqueue = np.asarray(is_enqueue, dtype=bool)
        depth = np.asarray(depth_after_units, dtype=np.int64)
        n = len(depth)
        if n == 0:
            return
        raw_level = depth // self.granularity
        self.overflows += int(np.count_nonzero(raw_level >= self.levels))
        level = np.maximum(0, np.minimum(raw_level, self.levels - 1))
        num_pushes = int(np.count_nonzero(is_enqueue))
        self.pushes += num_pushes
        self.drains += n - num_pushes
        peak = int(level.max())
        if peak > self.high_water:
            self.high_water = peak
        base_seq = self._seq
        self._seq += n

        # Last event per (level, side) key via one O(n) scatter:
        # duplicate-index assignment is performed in order, so the last
        # write wins — exactly the survivor rule.  The scratch array is
        # bounded by the batch's peak level, not the full register
        # length, and only the surviving events' flows are ever
        # materialised as objects (one gather over the flow table, whose
        # FlowKey objects already exist).
        key = (level << 1) | ~is_enqueue
        last = np.full(2 * (peak + 1), -1, dtype=np.int64)
        last[key] = np.arange(n, dtype=np.int64)
        present = np.flatnonzero(last >= 0)
        pos = last[present]
        surviving = flows.gather(pos).tolist()
        seqs = (base_seq + 1 + pos).tolist()
        is_dec = (present & 1).astype(bool)
        lvls = present >> 1
        inc_sel = np.flatnonzero(~is_dec).tolist()
        dec_sel = np.flatnonzero(is_dec).tolist()
        lvl_list = lvls.tolist()
        inc_seq, inc_flow = self.inc_seq, self.inc_flow
        for i in inc_sel:
            lvl = lvl_list[i]
            inc_seq[lvl] = seqs[i]
            inc_flow[lvl] = surviving[i]
        dec_seq, dec_flow = self.dec_seq, self.dec_flow
        for i in dec_sel:
            lvl = lvl_list[i]
            dec_seq[lvl] = seqs[i]
            dec_flow[lvl] = surviving[i]
        self.top = int(level[-1])

    def snapshot(self, time_ns: int) -> QueueMonitorSnapshot:
        """Atomically copy the register state (a frozen control-plane read)."""
        return QueueMonitorSnapshot(
            time_ns=time_ns,
            top=self.top,
            inc_seq=list(self.inc_seq),
            inc_flow=list(self.inc_flow),
            dec_seq=list(self.dec_seq),
        )

    def reset(self) -> None:
        self._seq = 0
        self.top = 0
        self.inc_seq = [_UNSET] * self.levels
        self.inc_flow = [None] * self.levels
        self.dec_seq = [_UNSET] * self.levels
        self.dec_flow = [None] * self.levels
        self.overflows = 0
        self.pushes = 0
        self.drains = 0
        self.high_water = 0
