"""Shared buffer management with dynamic thresholds.

Real switch ASICs share one packet buffer across egress queues and admit
packets by a *dynamic threshold* (DT) policy: a queue may grow up to
``alpha x remaining_free_buffer``.  PrintQueue's evaluation runs a
single uncontended port, but the multi-port experiments (Figure 15) and
any realistic deployment sit behind such a buffer manager.  This module
holds the admission arithmetic only: no egress queue is gated by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import SimulationError


@dataclass
class BufferStats:
    admitted: int = 0
    dropped: int = 0
    peak_occupancy_bytes: int = 0


class SharedBuffer:
    """A byte-accounted shared buffer with dynamic-threshold admission.

    Parameters
    ----------
    capacity_bytes:
        Total buffer size (Tofino-1 carries ~22 MB per pipe group).
    alpha:
        DT aggressiveness: a queue is admitted while
        ``queue_bytes < alpha * free_bytes``.  Large alpha approaches
        complete sharing; small alpha reserves headroom for quiet queues.
    """

    def __init__(self, capacity_bytes: int = 22 * 1024 * 1024, alpha: float = 1.0) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"non-positive capacity: {capacity_bytes}")
        if alpha <= 0:
            raise ValueError(f"non-positive alpha: {alpha}")
        self.capacity_bytes = capacity_bytes
        self.alpha = alpha
        self._queue_bytes: Dict[int, int] = {}
        self._occupied = 0
        self.stats = BufferStats()

    @property
    def occupied_bytes(self) -> int:
        return self._occupied

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._occupied

    def queue_bytes(self, queue_id: int) -> int:
        return self._queue_bytes.get(queue_id, 0)

    def threshold_bytes(self) -> float:
        """The current per-queue DT limit."""
        return self.alpha * self.free_bytes

    def admit(self, queue_id: int, size_bytes: int) -> bool:
        """Try to admit ``size_bytes`` for ``queue_id``."""
        if size_bytes <= 0:
            raise ValueError(f"non-positive packet size: {size_bytes}")
        current = self._queue_bytes.get(queue_id, 0)
        if size_bytes > self.free_bytes or current >= self.threshold_bytes():
            self.stats.dropped += 1
            return False
        self._queue_bytes[queue_id] = current + size_bytes
        self._occupied += size_bytes
        self.stats.admitted += 1
        if self._occupied > self.stats.peak_occupancy_bytes:
            self.stats.peak_occupancy_bytes = self._occupied
        return True

    def release(self, queue_id: int, size_bytes: int) -> None:
        """Return ``size_bytes`` to the pool on dequeue."""
        current = self._queue_bytes.get(queue_id, 0)
        if size_bytes > current:
            raise SimulationError(
                f"queue {queue_id} releasing {size_bytes} B but holds {current} B"
            )
        self._queue_bytes[queue_id] = current - size_bytes
        self._occupied -= size_bytes
