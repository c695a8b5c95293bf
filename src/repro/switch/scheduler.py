"""Packet schedulers for an egress port.

PrintQueue's time windows claim to be agnostic to the scheduling policy
(they consume only dequeue timestamps), and its queue monitor "can track
each priority or rank separately" (Section 5).  To exercise both claims the
simulator supports FIFO and strict priority over a set of per-class FIFO
queues.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from repro.switch.packet import Packet
from repro.switch.queue import EgressQueue


class Scheduler(ABC):
    """Selects which of a port's class queues dequeues next."""

    def __init__(self, queues: Sequence[EgressQueue]) -> None:
        if not queues:
            raise ValueError("scheduler needs at least one queue")
        self.queues: List[EgressQueue] = list(queues)

    def queue_for(self, packet: Packet) -> EgressQueue:
        """Queue a packet of this priority class enqueues into.

        Priorities beyond the configured class count map to the last
        (lowest-priority) queue.
        """
        index = min(packet.priority, len(self.queues) - 1)
        return self.queues[index]

    @property
    def total_depth_units(self) -> int:
        return sum(q.depth_units for q in self.queues)

    @property
    def empty(self) -> bool:
        return all(len(q) == 0 for q in self.queues)

    @abstractmethod
    def select(self) -> Optional[EgressQueue]:
        """The queue to dequeue from next, or None if all are empty."""


class FifoScheduler(Scheduler):
    """A single FIFO queue; the paper's default evaluation setting."""

    def __init__(self, queue: EgressQueue) -> None:
        super().__init__([queue])

    def select(self) -> Optional[EgressQueue]:
        return self.queues[0] if len(self.queues[0]) else None


class StrictPriorityScheduler(Scheduler):
    """Always serve the lowest-indexed non-empty queue (0 = highest)."""

    def select(self) -> Optional[EgressQueue]:
        for queue in self.queues:
            if len(queue):
                return queue
        return None
