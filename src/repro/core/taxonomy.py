"""Ground-truth culprit taxonomy (Section 2 definitions).

Given the lossless dequeue log of a simulation run, this module computes,
for any victim packet, the exact sets of direct, indirect, and original
culprits.  It is the oracle PrintQueue's estimates are scored against —
the simulator's replacement for the paper's DPDK telemetry capture.

Definitions implemented verbatim from Section 2:

* **direct**: packets dequeued in ``[t_enq, t_deq]`` of the victim,
* **indirect**: packets dequeued before ``t_enq`` while the queue stayed
  non-empty throughout ``[t_deq', t_enq]`` — i.e. dequeued after the last
  instant the queue was empty before the victim enqueued,
* **original**: the monotone-stack survivors — for each still-standing
  depth level, the packet whose arrival raised the queue to that level.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.core.queries import FlowEstimate
from repro.switch.packet import FlowKey
from repro.switch.telemetry import DequeueRecord


class CulpritTaxonomy:
    """Precomputed event timeline + per-victim culprit queries."""

    def __init__(self, records: Sequence[DequeueRecord]) -> None:
        self._records = list(records)
        self._build_timeline()

    # -- construction ------------------------------------------------------

    def _build_timeline(self) -> None:
        events: List[Tuple[int, int, bool, int]] = []
        for i, record in enumerate(self._records):
            # Enqueues sort before dequeues at equal timestamps, matching
            # the event-driven simulator's tie-break.
            events.append((record.enq_timestamp, 0, True, i))
            events.append((record.deq_timestamp, 1, False, i))
        events.sort(key=lambda e: (e[0], e[1]))
        self._events = events

        # Depth replay: find every instant the queue returns to empty.
        depth = 0
        empty_times: List[int] = [0]
        for time_ns, _order, is_enqueue, _idx in events:
            depth += 1 if is_enqueue else -1
            if depth == 0:
                empty_times.append(time_ns)
        self._empty_times = empty_times

        # Dequeue timestamps in dequeue order for interval slicing.
        self._deq_sorted = sorted(
            range(len(self._records)), key=lambda i: self._records[i].deq_timestamp
        )
        self._deq_times = [
            self._records[i].deq_timestamp for i in self._deq_sorted
        ]

    # -- helpers -------------------------------------------------------------

    def regime_start(self, enq_timestamp: int) -> int:
        """Last instant (<= enq time) the queue was empty."""
        pos = bisect.bisect_right(self._empty_times, enq_timestamp)
        if pos == 0:
            return 0
        return self._empty_times[pos - 1]

    def _counts_for_deq_range(
        self, start_ns: int, end_ns: int, exclude: Optional[int]
    ) -> FlowEstimate:
        """Per-flow counts of packets dequeued in ``[start_ns, end_ns]``."""
        lo = bisect.bisect_left(self._deq_times, start_ns)
        hi = bisect.bisect_right(self._deq_times, end_ns)
        estimate = FlowEstimate()
        for pos in range(lo, hi):
            idx = self._deq_sorted[pos]
            if idx == exclude:
                continue
            estimate.add(self._records[idx].flow, 1)
        return estimate

    def _find_record(self, victim: DequeueRecord) -> Optional[int]:
        lo = bisect.bisect_left(self._deq_times, victim.deq_timestamp)
        while lo < len(self._deq_times) and self._deq_times[lo] == victim.deq_timestamp:
            idx = self._deq_sorted[lo]
            if self._records[idx] == victim:
                return idx
            lo += 1
        return None

    # -- the three culprit classes -------------------------------------------

    def direct(self, victim: DequeueRecord) -> FlowEstimate:
        """Packets dequeued within the victim's own queuing interval."""
        return self._counts_for_deq_range(
            victim.enq_timestamp,
            victim.deq_timestamp,
            exclude=self._find_record(victim),
        )

    def indirect(self, victim: DequeueRecord) -> FlowEstimate:
        """Packets dequeued earlier in the same congestion regime.

        Strict inequality at the regime start excludes the packet whose
        departure emptied the queue — it predates the current regime.
        """
        start = self.regime_start(victim.enq_timestamp)
        estimate = FlowEstimate()
        lo = bisect.bisect_right(self._deq_times, start)
        hi = bisect.bisect_left(self._deq_times, victim.enq_timestamp)
        for pos in range(lo, hi):
            estimate.add(self._records[self._deq_sorted[pos]].flow, 1)
        return estimate

    def original(self, at_time_ns: int) -> FlowEstimate:
        """Monotone-stack survivors just before ``at_time_ns``.

        Replays enqueue/dequeue events up to (but excluding) the instant
        and keeps, per depth level, the last packet that raised the queue
        to a level it has not drained below since.
        """
        stack: List[Tuple[int, FlowKey]] = []  # (level, flow), increasing
        depth = 0
        for time_ns, _order, is_enqueue, idx in self._events:
            if time_ns >= at_time_ns:
                break
            if is_enqueue:
                depth += 1
                stack.append((depth, self._records[idx].flow))
            else:
                depth -= 1
                while stack and stack[-1][0] > depth:
                    stack.pop()
        estimate = FlowEstimate()
        for _level, flow in stack:
            estimate.add(flow, 1)
        return estimate

    def congestion_regime(self, victim: DequeueRecord) -> Tuple[int, int]:
        """The [regime_start, victim_deq] span of the full regime."""
        return self.regime_start(victim.enq_timestamp), victim.deq_timestamp
