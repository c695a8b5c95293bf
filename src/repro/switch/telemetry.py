"""Telemetry headers and the ground-truth recorder.

In the paper's testbed, the switch inserts a telemetry header (enqueue /
dequeue timestamps and enqueue-time queue depth) into every packet, and a
DPDK receiver logs the headers to files that later yield the ground truth.
In the simulator the recorder simply subscribes to the egress pipeline and
logs the same fields losslessly — strictly more faithful than a capture
pipeline, and only used for scoring, never by PrintQueue itself.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.switch.packet import FlowKey, Packet


@dataclass(frozen=True)
class TelemetryHeader:
    """The per-packet telemetry header of Section 7.1."""

    enq_timestamp: int
    deq_timestamp: int
    enq_qdepth: int

    @property
    def deq_timedelta(self) -> int:
        return self.deq_timestamp - self.enq_timestamp


@dataclass(frozen=True)
class DequeueRecord:
    """One dequeued packet as logged by the ground-truth recorder."""

    flow: FlowKey
    size_bytes: int
    enq_timestamp: int
    deq_timestamp: int
    enq_qdepth: int
    priority: int = 0

    @property
    def queuing_delay(self) -> int:
        return self.deq_timestamp - self.enq_timestamp

    @property
    def header(self) -> TelemetryHeader:
        return TelemetryHeader(self.enq_timestamp, self.deq_timestamp, self.enq_qdepth)


class GroundTruthRecorder:
    """Logs every dequeue event on a port, ordered by dequeue time.

    Provides the primitives the evaluation needs: per-flow dequeue counts
    over an interval, victim selection by queue depth, and queue-depth
    reconstruction.
    """

    def __init__(self) -> None:
        self._records: List[DequeueRecord] = []
        self._deq_times: List[int] = []
        self._finalized = False

    def __len__(self) -> int:
        return len(self._records)

    def hook(self, packet: Packet) -> None:
        """Egress-pipeline hook: log a dequeued packet."""
        assert packet.enq_timestamp is not None
        assert packet.deq_timedelta is not None
        assert packet.enq_qdepth is not None
        record = DequeueRecord(
            flow=packet.flow,
            size_bytes=packet.size_bytes,
            enq_timestamp=packet.enq_timestamp,
            deq_timestamp=packet.enq_timestamp + packet.deq_timedelta,
            enq_qdepth=packet.enq_qdepth,
            priority=packet.priority,
        )
        if self._deq_times and record.deq_timestamp < self._deq_times[-1]:
            raise SimulationError("dequeue events arrived out of order")
        self._records.append(record)
        self._deq_times.append(record.deq_timestamp)

    @property
    def records(self) -> Sequence[DequeueRecord]:
        return self._records

    # -- interval queries --------------------------------------------------

    def index_range(self, start_ns: int, end_ns: int) -> Tuple[int, int]:
        """Indices of records with ``start_ns <= deq_timestamp <= end_ns``."""
        lo = bisect.bisect_left(self._deq_times, start_ns)
        hi = bisect.bisect_right(self._deq_times, end_ns)
        return lo, hi

    def flow_counts(self, start_ns: int, end_ns: int) -> Dict[FlowKey, int]:
        """Ground-truth per-flow packet counts dequeued in the interval."""
        lo, hi = self.index_range(start_ns, end_ns)
        counts: Dict[FlowKey, int] = {}
        for record in self._records[lo:hi]:
            counts[record.flow] = counts.get(record.flow, 0) + 1
        return counts

