"""End-to-end test: per-class queue monitors under strict priority.

Exercises the Section-5 claim that the queue monitor generalizes to
schedulers built from per-class FIFO queues by tracking each class
separately.
"""

import pytest

from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueuePort
from repro.errors import QueryError
from repro.switch.packet import FlowKey, Packet
from repro.switch.port import EgressPort
from repro.switch.queue import EgressQueue
from repro.switch.scheduler import StrictPriorityScheduler
from repro.switch.switchsim import Switch
from repro.units import GBPS

HIGH = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
LOW_A = FlowKey.from_strings("10.0.0.2", "10.1.0.1", 5001, 80)
LOW_B = FlowKey.from_strings("10.0.0.3", "10.1.0.1", 5002, 80)


def build_port():
    config = PrintQueueConfig(
        m0=10, k=10, alpha=1, T=3, min_packet_bytes=1500, qm_poll_period_ns=50_000
    )
    pq = PrintQueuePort(config, d_ns=1200.0, num_classes=2, model_dp_read_cost=False)
    queues = [EgressQueue(), EgressQueue()]
    sched = StrictPriorityScheduler(queues)
    port = EgressPort(0, 10 * GBPS, scheduler=sched)
    port.add_enqueue_hook(pq.on_enqueue)
    port.add_egress_hook(pq.on_dequeue)
    return pq, port


def run_mixed_traffic(pq, port, n_low=300, n_high=80):
    switch = Switch([port])
    packets = []
    for i in range(n_low):
        flow = LOW_A if i % 2 else LOW_B
        packets.append(Packet(flow, 1500, i * 700, priority=1))
    for i in range(n_high):
        packets.append(Packet(HIGH, 1500, 2000 + i * 2500, priority=0))
    switch.run_trace(packets)
    end = max(p.deq_timestamp for p in packets if not p.dropped) + 1
    pq.finish(end)
    return packets, end


class TestClassedMonitors:
    def test_classes_tracked_separately(self):
        pq, port = build_port()
        run_mixed_traffic(pq, port)
        assert pq.classed_monitor is not None
        assert pq.classed_monitor.active_classes == [0, 1]

    def test_class_restricted_query(self):
        pq, port = build_port()
        packets, end = run_mixed_traffic(pq, port)
        # Pick a moment of peak low-priority buildup.
        low = [p for p in packets if p.priority == 1 and not p.dropped]
        victim = max(low, key=lambda p: p.deq_timedelta or 0)
        t = victim.enq_timestamp
        # High-priority victims are only delayed by class 0.
        high_only = pq.query(at_ns=t, classes=[0]).estimate
        both = pq.query(at_ns=t, classes=[0, 1]).estimate
        assert high_only.total <= both.total
        for flow, _count in high_only.items():
            assert flow == HIGH
        # The scan answers what the Section-5 walk does, in its order.
        _, snapshots = min(pq._classed_snapshots, key=lambda ts: abs(ts[0] - t))
        expected = {}
        for snapshot in snapshots.values():
            for entry in snapshot.walk():
                expected[entry.flow] = expected.get(entry.flow, 0.0) + 1
        assert list(both.items()) == list(expected.items())

    def test_low_class_buildup_attributed(self):
        pq, port = build_port()
        packets, end = run_mixed_traffic(pq, port)
        low = [p for p in packets if p.priority == 1 and not p.dropped]
        victim = max(low, key=lambda p: p.deq_timedelta or 0)
        estimate = pq.query(
            at_ns=victim.enq_timestamp, classes=[0, 1]
        ).estimate
        # The standing low-priority queue implicates the two low flows.
        low_total = estimate[LOW_A] + estimate[LOW_B]
        assert low_total > 0

    def test_query_without_classes_raises(self):
        config = PrintQueueConfig(m0=10, k=10, alpha=1, T=3)
        pq = PrintQueuePort(config)
        with pytest.raises(QueryError):
            pq.query(at_ns=0, classes=[0])

    def test_query_before_snapshots_raises(self):
        config = PrintQueueConfig(m0=10, k=10, alpha=1, T=3)
        pq = PrintQueuePort(config, num_classes=2)
        with pytest.raises(QueryError):
            pq.query(at_ns=0, classes=[0])
