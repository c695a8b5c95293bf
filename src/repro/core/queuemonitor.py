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
from typing import Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from repro.switch.packet import FlowKey
from repro.switch.records import FlowColumn, FlowTable

#: Sequence number of a never-written half-entry (and the flow index of
#: a never-written increase entry).
_UNSET = -1

#: Levels per copy-on-write page: a snapshot copies the pages written
#: since the previous snapshot and shares the rest with it.
_PAGE_SHIFT = 10
_PAGE = 1 << _PAGE_SHIFT

#: One slice of the registers: ``(inc_seq, inc_flow_idx, dec_seq)``.
Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class MonitorEntry:
    """One surviving (valid) increase entry, as returned by a query."""

    level: int
    flow: FlowKey
    seq: int


class QueueMonitorSnapshot:
    """A frozen copy of the monitor taken by the control plane.

    The registers are held as :attr:`chunks`: consecutive
    ``(inc_seq, inc_flow_idx, dec_seq)`` slices of the level range, every
    one but the last the same length.  A live snapshot's chunks are the
    monitor's read-only pages, shared with the snapshots around it; a
    decoded or hand-built snapshot has one chunk (for a decoded one,
    read-only views into the store's buffer).  ``inc_seq``/``dec_seq``
    are int64, ``inc_flow_idx`` int32 (``-1`` = unset) into
    ``flow_table`` — the port's table for a live snapshot, the payload's
    own for a decoded one.  The column attributes concatenate the chunks;
    never write a chunk in place, rebind :attr:`chunks`.
    """

    def __init__(
        self,
        time_ns: int,
        top: int,
        inc_seq: np.ndarray,
        inc_flow_idx: np.ndarray,
        dec_seq: np.ndarray,
        flow_table: Sequence[FlowKey],
    ) -> None:
        self.time_ns = time_ns
        self.top = top
        self.chunks: Tuple[Chunk, ...] = ((inc_seq, inc_flow_idx, dec_seq),)
        self.flow_table = flow_table
        #: :attr:`max_seq` stamped by the monitor for a live snapshot;
        #: None (scan the chunks) for a decoded or rebound one.
        self.seq_stamp: Optional[int] = None

    def _column(self, side: int, n: Optional[int] = None) -> np.ndarray:
        """Column ``side`` of the chunks over levels ``[0, n)`` (all when
        ``n`` is None), concatenating only the chunks it needs."""
        needed = self.chunks
        if n is not None:
            needed = needed[: -(-n // len(needed[0][side]))]
        if len(needed) == 1:
            column = needed[0][side]
        else:
            column = np.concatenate([chunk[side] for chunk in needed])
        return column if n is None else column[:n]

    @property
    def inc_seq(self) -> np.ndarray:
        return self._column(0)

    @property
    def inc_flow_idx(self) -> np.ndarray:
        return self._column(1)

    @property
    def dec_seq(self) -> np.ndarray:
        return self._column(2)

    def __eq__(self, other: object) -> bool:
        """Same registers, flows compared by key (tables may differ)."""
        if not isinstance(other, QueueMonitorSnapshot):
            return NotImplemented
        mine, theirs = self.inc_flow_idx, other.inc_flow_idx
        if (self.time_ns, self.top) != (other.time_ns, other.top) or not (
            np.array_equal(self.inc_seq, other.inc_seq)
            and np.array_equal(self.dec_seq, other.dec_seq)
            and np.array_equal(mine < 0, theirs < 0)
        ):
            return False
        pairs = np.unique(np.stack((mine, theirs)), axis=1).T.tolist()
        return all(
            i < 0 or self.flow_table[i] == other.flow_table[j] for i, j in pairs
        )

    def __repr__(self) -> str:
        return (
            f"QueueMonitorSnapshot(time_ns={self.time_ns}, top={self.top}, "
            f"chunks={len(self.chunks)})"
        )

    @property
    def max_seq(self) -> int:
        """The largest sequence number held (``_UNSET`` when empty)."""
        if self.seq_stamp is not None:
            return self.seq_stamp
        return max(int(chunk[side].max()) for chunk in self.chunks for side in (0, 2))

    def walk(self) -> List[MonitorEntry]:
        """Filter stale entries: the monotone bottom-up walk of Section 5.

        The executable specification; queries run its prefix-scan form
        (:meth:`_survivors`), and :meth:`scan` is that form as arrays.
        """
        n = self.top + 1
        inc_seq = self._column(0, n).tolist()
        inc_flow_idx = self._column(1, n).tolist()
        dec_seq = self._column(2, n).tolist()
        running = _UNSET
        survivors: List[MonitorEntry] = []
        for level in range(n):
            inc = inc_seq[level]
            if inc > running and inc != _UNSET and level > 0:
                flow = self.flow_table[inc_flow_idx[level]]
                survivors.append(MonitorEntry(level, flow, inc))
            level_max = max(inc, dec_seq[level])
            if level_max > running:
                running = level_max
        return survivors

    def scan(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`walk` as arrays: ``(levels, seqs, flow indices)``."""
        levels, inc = self._survivors()
        return levels, inc[levels], self._column(1, self.top + 1)[levels]

    def _survivors(self) -> Tuple[np.ndarray, np.ndarray]:
        """The walk's surviving levels as a prefix scan, and ``inc_seq``
        up to ``top`` (only the chunks up to ``top`` are read).

        The walk's running maximum *before* a level is the exclusive
        prefix maximum of ``max(inc, dec)``; it never drops below
        ``_UNSET``, so "exceeds it" already implies "is set".
        """
        n = self.top + 1
        inc = self._column(0, n)
        running = np.maximum.accumulate(np.maximum(inc, self._column(2, n)))
        return np.flatnonzero(inc[1:] > running[:-1]) + 1, inc

    def flow_counts(self) -> Dict[FlowKey, int]:
        """Original-culprit contribution per flow (entries implicated)."""
        idx = self._column(1, self.top + 1)[self._survivors()[0]]
        tally = np.bincount(idx)
        # Scattered in reverse, the first survivor of each flow is the
        # write that lasts: dict order below is first-survivor order.
        first = np.empty(len(tally), dtype=np.int64)
        first[idx[::-1]] = np.arange(len(idx) - 1, -1, -1)
        present = np.flatnonzero(tally)
        present = present[np.argsort(first[present])]
        table = self.flow_table
        return {
            table[i]: n for i, n in zip(present.tolist(), tally[present].tolist())
        }


class QueueMonitor:
    """The data-plane sparse stack for one (port, class-of-service) queue.

    Parameters
    ----------
    levels:
        Register length = max queue depth / granularity.
    granularity:
        Depth units folded into one level (buffer allocation granularity).
    flow_table:
        The interning table ``inc_flow_idx`` points into; a port passes
        its one table, a standalone monitor gets its own.
    """

    __slots__ = (
        "levels",
        "granularity",
        "flow_table",
        "_seq",
        "top",
        "inc_seq",
        "inc_flow_idx",
        "dec_seq",
        "_dirty",
        "_pages",
        "overflows",
        "pushes",
        "drains",
        "high_water",
    )

    def __init__(
        self,
        levels: int,
        granularity: int = 1,
        flow_table: Optional[FlowTable] = None,
    ) -> None:
        if levels < 1:
            raise ValueError(f"need at least one level, got {levels}")
        if granularity < 1:
            raise ValueError(f"non-positive granularity: {granularity}")
        self.levels = levels
        self.granularity = granularity
        self.flow_table = flow_table if flow_table is not None else FlowTable()
        self.reset()

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
        self.inc_flow_idx[level] = self.flow_table.intern(flow)
        self._dirty[level >> _PAGE_SHIFT] = True
        self.top = level
        self.pushes += 1
        if level > self.high_water:
            self.high_water = level

    def on_dequeue(self, flow: FlowKey, depth_after_units: int) -> None:
        """A packet left, lowering the queue depth to ``depth_after_units``.

        The decrease half records only the sequence number (Section 5):
        the leaving ``flow`` is not a culprit of anything.
        """
        self._seq += 1
        level = self._level_of(depth_after_units)
        self.dec_seq[level] = self._seq
        self._dirty[level >> _PAGE_SHIFT] = True
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
        event.  ``flows`` is the per-event flow column over
        :attr:`flow_table`; its indices are written as they are.
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
        # length; column 0 is the increase side, column 1 the decrease.
        key = (level << 1) | ~is_enqueue
        last = np.full(2 * (peak + 1), -1, dtype=np.int64)
        last[key] = np.arange(n, dtype=np.int64)
        inc_pos, dec_pos = last.reshape(-1, 2).T
        inc_lvl = np.flatnonzero(inc_pos >= 0)
        dec_lvl = np.flatnonzero(dec_pos >= 0)
        self.inc_seq[inc_lvl] = base_seq + 1 + inc_pos[inc_lvl]
        self.inc_flow_idx[inc_lvl] = flows.idx[inc_pos[inc_lvl]]
        self.dec_seq[dec_lvl] = base_seq + 1 + dec_pos[dec_lvl]
        self._dirty[inc_lvl >> _PAGE_SHIFT] = True
        self._dirty[dec_lvl >> _PAGE_SHIFT] = True
        self.top = int(level[-1])

    def snapshot(self, time_ns: int) -> QueueMonitorSnapshot:
        """Atomically copy the register state (a frozen control-plane read).

        Copy-on-write: only the pages written since the previous
        snapshot are copied (into read-only arrays); the others are that
        snapshot's page objects, shared.
        """
        pages = self._pages
        for page in np.flatnonzero(self._dirty).tolist():
            span = slice(page << _PAGE_SHIFT, (page + 1) << _PAGE_SHIFT)
            pages[page] = (
                _frozen_copy(self.inc_seq[span]),
                _frozen_copy(self.inc_flow_idx[span]),
                _frozen_copy(self.dec_seq[span]),
            )
        self._dirty[:] = False
        chunks = cast(Tuple[Chunk, ...], tuple(pages))  # reset marked every page
        snapshot = QueueMonitorSnapshot(
            time_ns, self.top, *chunks[0], self.flow_table.flows
        )
        snapshot.chunks = chunks
        # Every event writes ``++_seq`` at its level, so the newest one
        # is the maximum: O(1) instead of a scan over every page.
        snapshot.seq_stamp = self._seq if self._seq else _UNSET
        return snapshot

    def reset(self) -> None:
        self._seq = 0
        self.top = 0
        self.inc_seq = np.full(self.levels, _UNSET, dtype=np.int64)
        self.inc_flow_idx = np.full(self.levels, _UNSET, dtype=np.int32)
        self.dec_seq = np.full(self.levels, _UNSET, dtype=np.int64)
        # One dirty mark per page; every write sets its page's mark and a
        # snapshot clears them (see :meth:`snapshot`).
        num_pages = -(-self.levels // _PAGE)
        self._dirty = np.ones(num_pages, dtype=bool)
        self._pages: List[Optional[Chunk]] = [None] * num_pages
        self.overflows = 0
        # Observability (repro.obs): stack churn.  ``pushes``/``drains``
        # count the rise/drain sides of the event stream; ``high_water``
        # is the tallest level the stack top ever reached.  apply_batch
        # maintains identical values.
        self.pushes = 0
        self.drains = 0
        self.high_water = 0


def _frozen_copy(column: np.ndarray) -> np.ndarray:
    copy = column.copy()
    copy.flags.writeable = False
    return copy
