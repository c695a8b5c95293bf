"""The set of T time windows and the per-packet procedure (Algorithm 1).

Every dequeued packet enters window 0 at the cell selected by its trimmed
dequeue timestamp.  On a collision the newer record always wins; the
evicted record is *passed* to the next window only if the incoming cycle
ID exceeds the evicted one by exactly one (the passing rule), otherwise it
is dropped.  Passing recurses through all T windows, shifting the TTS by
``alpha`` bits per hop.

Algorithm 1 has exactly two entry points here, on the same array
registers: :meth:`TimeWindowSet.update` is the per-packet executable
specification (the scalar oracle), :meth:`TimeWindowSet.absorb_indexed`
the array-at-a-time kernel every production path runs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.config import PrintQueueConfig
from repro.core.timewindow import EMPTY, TimeWindow
from repro.errors import SimulationError
from repro.switch.packet import FlowKey
from repro.switch.records import FlowTable


class TimeWindowSet:
    """T time windows sharing one flow table, plus Algorithm 1.

    ``table`` is the port's :class:`~repro.switch.records.FlowTable`
    (every bank of a port shares it, so a flow has one index port-wide);
    a set built without one gets its own.
    """

    __slots__ = (
        "config",
        "table",
        "windows",
        "updates",
        "passes",
        "drops",
        "level_inserts",
        "level_passes",
        "level_drops",
    )

    def __init__(
        self, config: PrintQueueConfig, table: Optional[FlowTable] = None
    ) -> None:
        self.config = config
        self.table = FlowTable() if table is None else table
        self.windows: List[TimeWindow] = [
            TimeWindow(config.k, self.table) for _ in range(config.T)
        ]
        # Instrumentation counters (used by tests and ablation benches).
        self.updates = 0
        self.passes = 0
        self.drops = 0
        # Per-window-level observability (repro.obs): writes landing on
        # window i, records evicted from window i that passed onward, and
        # records evicted from window i that were dropped.  Collisions at
        # level i = level_passes[i] + level_drops[i].  Maintained with
        # identical semantics by update() and absorb_indexed().
        self.level_inserts = [0] * config.T
        self.level_passes = [0] * config.T
        self.level_drops = [0] * config.T

    def update(self, flow: FlowKey, deq_timestamp_ns: int) -> int:
        """Algorithm 1: insert one dequeued packet.

        Returns the number of windows written (1 = stored in window 0 with
        no onward pass).
        """
        cfg = self.config
        k = cfg.k
        alpha = cfg.alpha
        self.updates += 1
        tts = deq_timestamp_ns >> cfg.m0
        fid = self.table.intern(flow)
        depth = 0
        for i in range(cfg.T):
            window = self.windows[i]
            index = tts & window.mask
            new_cycle = tts >> k
            old_cycle = window.cycle_ids.item(index)
            old_fid = window.flow_idx.item(index)
            window.cycle_ids[index] = new_cycle
            window.flow_idx[index] = fid
            depth += 1
            self.level_inserts[i] += 1
            if old_cycle != EMPTY and new_cycle - old_cycle == 1:
                # Pass the evicted record onward: reconstruct its TTS at
                # this window's granularity and compress by alpha bits.
                fid = old_fid
                tts = ((old_cycle << k) | index) >> alpha
                self.passes += 1
                self.level_passes[i] += 1
            else:
                if old_cycle != EMPTY:
                    self.drops += 1
                    self.level_drops[i] += 1
                break
        return depth

    def absorb_indexed(
        self, flow_idx: "np.ndarray", deq_timestamps_ns: "np.ndarray"
    ) -> int:
        """Vectorised Algorithm 1 over a batch of dequeued packets.

        ``flow_idx`` holds indices into :attr:`table`.  Exactly
        equivalent — cell for cell and counter for counter — to calling
        :meth:`update` once per packet in batch order.  The key
        observation making array-at-a-time replay possible: direct inserts
        only ever hit window 0, and window ``i+1`` only receives records
        *passed* from window ``i``, so the windows can be processed level
        by level.  Within one window, writes are grouped per cell index (a
        stable sort preserves batch order inside each group) and the
        collision/pass rule is evaluated on adjacent pairs of each group
        plus the group head against the pre-batch cell contents.

        A pass always evicts a record from the evictor's own cell with a
        cycle ID exactly one less, so the passed TTS is the evicting TTS
        minus ``2**k``.  The scalar loop inserts passed records into the
        next window in the order of their evictors, so marking each
        evictor at its position in this window's stream and reading the
        marks back in order yields the next window's stream with no
        second sort; only the per-cell grouping sorts.

        The pre-batch reads, the eviction stream and the final cell
        writes are all fancy-indexed array operations: no Python executes
        per cell or per packet.  Returns the number of packets absorbed.
        """
        cfg = self.config
        k = cfg.k
        alpha = cfg.alpha
        tts = np.asarray(deq_timestamps_ns, dtype=np.int64) >> cfg.m0
        n = len(tts)
        if n == 0:
            return 0
        fids = np.asarray(flow_idx, dtype=np.int64)
        if len(fids) != n:
            raise SimulationError(
                "flow_idx and deq_timestamps_ns must have equal length"
            )
        self.updates += n

        passes = 0
        drops = 0
        for level in range(cfg.T):
            if len(tts) == 0:
                break
            window = self.windows[level]
            self.level_inserts[level] += len(tts)
            index = tts & window.mask
            cycle = tts >> k
            # Group writes per cell; stable sort keeps batch order inside
            # each group.
            perm = np.argsort(index, kind="stable")
            s_index = index[perm]
            s_cycle = cycle[perm]
            m = len(perm)
            diff = np.flatnonzero(s_index[1:] != s_index[:-1])
            starts = np.empty(len(diff) + 1, dtype=np.int64)
            starts[0] = 0
            starts[1:] = diff + 1
            ends = np.empty_like(starts)
            ends[:-1] = diff
            ends[-1] = m - 1

            # Group heads collide with the pre-batch cell contents,
            # gathered in one fancy-indexed read.
            head_index = s_index[starts]
            cycle_arr = window.cycle_ids
            fid_arr = window.flow_idx
            old_cycles = cycle_arr[head_index]
            old_fids = fid_arr[head_index]
            occupied = old_cycles != EMPTY
            head_pass = occupied & (s_cycle[starts] - old_cycles == 1)
            head_drop = occupied & ~head_pass
            # Adjacent writes to the same cell collide with each other.
            same = s_index[1:] == s_index[:-1]
            mid_pass = same & (s_cycle[1:] - s_cycle[:-1] == 1)
            mid_drop = same & ~mid_pass
            level_pass = int(np.count_nonzero(head_pass)) + int(
                np.count_nonzero(mid_pass)
            )
            level_drop = int(np.count_nonzero(head_drop)) + int(
                np.count_nonzero(mid_drop)
            )
            passes += level_pass
            drops += level_drop
            self.level_passes[level] += level_pass
            self.level_drops[level] += level_drop

            ev_pos: Optional[np.ndarray] = None
            if level + 1 < cfg.T:
                # Pass stream for the next window, in the order of the
                # evicting writes (= scalar insert order): mark each
                # evictor at its position in this level's stream and read
                # the marks back in order.  The evicted record's TTS is
                # the evictor's minus 2^k (same cell, cycle one less);
                # its flow index is the cell's previous writer, read
                # before this window's final state is scattered below.
                head_ev = perm[starts[head_pass]]
                mp = np.flatnonzero(mid_pass)
                mid_ev = perm[mp + 1]
                evictor = np.zeros(m, dtype=bool)
                evictor[head_ev] = True
                evictor[mid_ev] = True
                evicted_fid = np.empty(m, dtype=np.int64)
                evicted_fid[head_ev] = old_fids[head_pass]
                evicted_fid[mid_ev] = fids[perm[mp]]
                ev_pos = np.flatnonzero(evictor)

            # The last write of each group is this window's final state:
            # one fancy-indexed scatter per register array.
            cycle_arr[head_index] = s_cycle[ends]
            fid_arr[head_index] = fids[perm[ends]]

            if ev_pos is None:
                break
            tts = (tts[ev_pos] - (1 << k)) >> alpha
            fids = evicted_fid[ev_pos]

        self.passes += passes
        self.drops += drops
        return n

    def snapshot(self) -> List[TimeWindow]:
        """Frozen copies of all windows (a full register read)."""
        return [w.snapshot() for w in self.windows]

    def reset(self) -> None:
        """Clear every window (tests only; hardware relies on filtering)."""
        for window in self.windows:
            window.reset()

    def occupancy(self) -> List[int]:
        """Occupied-cell count per window (diagnostics)."""
        return [w.occupancy() for w in self.windows]
