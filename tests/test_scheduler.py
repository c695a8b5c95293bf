"""Unit tests for the FIFO / strict-priority schedulers."""

import pytest

from repro.switch.packet import FlowKey, Packet
from repro.switch.queue import EgressQueue
from repro.switch.scheduler import FifoScheduler, StrictPriorityScheduler

FLOW = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)


def pkt(priority=0, size=100):
    return Packet(FLOW, size, 0, priority=priority)


class TestFifoScheduler:
    def test_selects_when_nonempty(self):
        q = EgressQueue()
        sched = FifoScheduler(q)
        assert sched.select() is None
        q.enqueue(pkt(), 0)
        assert sched.select() is q

    def test_queue_for_ignores_priority(self):
        sched = FifoScheduler(EgressQueue())
        assert sched.queue_for(pkt(priority=7)) is sched.queues[0]

    def test_total_depth(self):
        q = EgressQueue()
        sched = FifoScheduler(q)
        q.enqueue(pkt(), 0)
        q.enqueue(pkt(), 0)
        assert sched.total_depth_units == 2
        assert not sched.empty


class TestStrictPriority:
    def test_highest_priority_first(self):
        queues = [EgressQueue() for _ in range(3)]
        sched = StrictPriorityScheduler(queues)
        sched.queue_for(pkt(priority=2)).enqueue(pkt(priority=2), 0)
        sched.queue_for(pkt(priority=0)).enqueue(pkt(priority=0), 0)
        assert sched.select() is queues[0]
        queues[0].dequeue(1)
        assert sched.select() is queues[2]

    def test_priority_beyond_classes_maps_to_last(self):
        queues = [EgressQueue() for _ in range(2)]
        sched = StrictPriorityScheduler(queues)
        assert sched.queue_for(pkt(priority=9)) is queues[1]

    def test_empty(self):
        sched = StrictPriorityScheduler([EgressQueue(), EgressQueue()])
        assert sched.select() is None


def test_scheduler_requires_queues():
    with pytest.raises(ValueError):
        StrictPriorityScheduler([])
