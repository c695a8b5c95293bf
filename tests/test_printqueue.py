"""Tests for PrintQueuePort / PrintQueue orchestration (Figure 3)."""

import numpy as np
import pytest

from repro.core.config import PrintQueueConfig
from repro.core.printqueue import (
    PrintQueue,
    PrintQueuePort,
    delay_threshold_trigger,
)
from repro.core.queries import QueryInterval
from repro.errors import ConfigError
from repro.experiments.runner import drive_printqueue
from repro.obs.report import RunReport
from repro.store import MmapStore
from repro.switch.fastpath import fifo_record_batch
from repro.switch.packet import FlowKey, Packet
from repro.switch.port import EgressPort
from repro.switch.switchsim import Switch
from repro.traffic.distributions import distribution_by_name
from repro.traffic.generator import PoissonWorkload, WorkloadConfig
from repro.traffic.trace import partition_trace_by_port
from repro.units import GBPS

FLOW_A = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
FLOW_B = FlowKey.from_strings("10.0.0.2", "10.1.0.1", 5001, 80)


def small_config():
    return PrintQueueConfig(m0=4, k=6, alpha=1, T=3)


class TestHooks:
    def test_attach_to_switch(self):
        config = small_config()
        pq = PrintQueue(config, port_ids=[0])
        port = EgressPort(0, 10 * GBPS)
        switch = Switch([port])
        pq.attach(switch.ports.values())
        packets = [Packet(FLOW_A, 1500, 0) for _ in range(10)]
        switch.run_trace(packets)
        assert pq.port(0).packets_seen == 10
        # All updates landed in some bank (polls may have flipped mid-run).
        total_updates = sum(b.updates for b in pq.port(0).analysis.tw_banks.banks)
        assert total_updates == 10
        assert pq.port(0).analysis.queue_monitor.top >= 0

    def test_unconfigured_port_ignored(self):
        config = small_config()
        pq = PrintQueue(config, port_ids=[1])  # only port 1 enabled
        ports = [EgressPort(0, 10 * GBPS), EgressPort(1, 10 * GBPS)]
        switch = Switch(ports)
        pq.attach(switch.ports.values())
        packets = [Packet(FLOW_A, 1500, 0) for _ in range(5)]
        for p in packets:
            p.egress_spec = 0
        switch.run_trace(packets)
        assert pq.port(1).packets_seen == 0

    def test_queue_monitor_sees_rises_and_drains(self):
        config = small_config()
        pq = PrintQueue(config, port_ids=[0])
        port = EgressPort(0, 10 * GBPS)
        switch = Switch([port])
        pq.attach(switch.ports.values())
        # 5 simultaneous arrivals build depth 5, then fully drain.
        switch.run_trace([Packet(FLOW_A, 1500, 0) for _ in range(5)])
        qm = pq.port(0).analysis.queue_monitor
        assert qm.top == 0  # fully drained
        assert qm.snapshot(0).walk() == []


class TestTriggers:
    def test_delay_threshold(self):
        trig = delay_threshold_trigger(1000)
        p = Packet(FLOW_A, 100, 0)
        p.deq_timedelta = 500
        assert not trig(p)
        p.deq_timedelta = 1500
        assert trig(p)

    def test_trigger_fires_dp_query(self):
        config = small_config()
        pq_port = PrintQueuePort(
            config,
            trigger=lambda packet: (packet.enq_qdepth or 0) >= 3,
            model_dp_read_cost=False,
        )
        port = EgressPort(0, 10 * GBPS)
        port.add_enqueue_hook(pq_port.on_enqueue)
        port.add_egress_hook(pq_port.on_dequeue)
        switch = Switch([port])
        switch.run_trace([Packet(FLOW_A, 1500, 0) for _ in range(6)])
        # Packets with enq_qdepth in {3, 4, 5} triggered queries.
        assert len(pq_port.dp_results) == 3
        result = pq_port.dp_results[0]
        assert result.estimate.total > 0


class TestEventStreamInterface:
    def test_polls_fire_on_schedule(self):
        config = small_config()  # set period = 2^(4+6)+2^(5+6)+2^(6+6)
        pq = PrintQueuePort(config)
        set_period = config.set_period_ns
        for i in range(10):
            pq.process_dequeue(FLOW_A, i * set_period // 2, depth_after=0)
        assert len(pq.analysis.tw_snapshots) >= 3

    def test_finish_flushes(self):
        pq = PrintQueuePort(small_config())
        pq.process_dequeue(FLOW_A, 100, depth_after=0)
        assert pq.analysis.tw_snapshots == []
        pq.finish(200)
        assert len(pq.analysis.tw_snapshots) >= 1
        estimate = pq.query(interval=QueryInterval(0, 200)).estimate
        assert estimate[FLOW_A] == pytest.approx(1.0)


class TestMultiPort:
    def test_rounded_ports(self):
        config = small_config()
        assert PrintQueue(config, port_ids=[1, 2, 3]).rounded_ports == 4
        assert PrintQueue(config, port_ids=[0]).rounded_ports == 1
        assert PrintQueue(config, port_ids=list(range(5))).rounded_ports == 8

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            PrintQueue(small_config(), port_ids=[1, 1])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            PrintQueue(small_config(), port_ids=[])

    def test_ports_tracked_independently(self):
        config = small_config()
        pq = PrintQueue(config, port_ids=[0, 1])
        ports = [EgressPort(0, 10 * GBPS), EgressPort(1, 10 * GBPS)]
        switch = Switch(ports)
        pq.attach(switch.ports.values())
        a = Packet(FLOW_A, 1500, 0)
        a.egress_spec = 0
        b1 = Packet(FLOW_B, 1500, 0)
        b1.egress_spec = 1
        b2 = Packet(FLOW_B, 1500, 0)
        b2.egress_spec = 1
        switch.run_trace([a, b1, b2])
        assert pq.port(0).packets_seen == 1
        assert pq.port(1).packets_seen == 2

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_fleet_is_a_loop_over_independent_ports(self, tmp_path, reverse):
        """Ports share nothing: a trace partitioned four ways and driven
        port by port into one deployment leaves every port exactly where
        a standalone port on that port's log ends up — report, batch
        answers and PQSTORE1 file bytes — whatever the drive order."""
        config = PrintQueueConfig(m0=6, k=10, alpha=2, T=3, qm_levels=4096)
        trace = PoissonWorkload(
            distribution_by_name("uw"),
            WorkloadConfig(load=1.2, duration_ns=8_000_000),
            seed=13,
        ).generate()
        logs = [
            fifo_record_batch(sub)[0]
            for sub in partition_trace_by_port(trace, 4)
        ]
        d_ns = 1200.0

        fleet = PrintQueue(config, port_ids=range(4), d_ns=d_ns)
        stores = {}
        for pid, pq in fleet.ports.items():
            # The deployment builds its ports' (memory) stores itself;
            # re-seat each on a file store bound to the same run metadata.
            stores[pid] = MmapStore(tmp_path / f"fleet-{pid}")
            stores[pid].bind(pq.analysis.store.meta)
            pq.analysis.store = stores[pid]
        order = sorted(fleet.ports, reverse=reverse)
        for pid in order:
            drive_printqueue(logs[pid], fleet.port(pid))

        for pid in order:
            records = logs[pid]
            alone_store = MmapStore(tmp_path / f"alone-{pid}")
            alone = PrintQueuePort(config, d_ns=d_ns, store=alone_store)
            drive_printqueue(records, alone)
            pq = fleet.port(pid)
            assert pq.packets_seen == len(records) > 0
            assert (
                RunReport.from_port(pq).deterministic_view()
                == RunReport.from_port(alone).deterministic_view()
            )
            ends = np.linspace(
                records[0].deq_timestamp, records[-1].deq_timestamp, 6
            ).astype(np.int64)[1:]
            intervals = [
                QueryInterval(max(0, int(end) - config.set_period_ns), int(end))
                for end in ends
            ]
            got = pq.query(intervals=intervals)
            want = alone.query(intervals=intervals)
            assert [list(e.items()) for e in got.estimates] == [
                list(e.items()) for e in want.estimates
            ]
            assert any(len(e) for e in got.estimates)
            stores[pid].close()
            alone_store.close()
            fleet_bytes = (tmp_path / f"fleet-{pid}").read_bytes()
            assert fleet_bytes == (tmp_path / f"alone-{pid}").read_bytes()
            assert len(fleet_bytes) > 0
