"""Tests for the Trace container: merging, slicing, persistence."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.switch.packet import FlowKey
from repro.traffic.distributions import distribution_by_name
from repro.traffic.generator import PoissonWorkload, WorkloadConfig
from repro.traffic.trace import Trace, partition_trace_by_port


def make_trace(arrivals, flow_ids=None, name="t"):
    n = len(arrivals)
    flow_ids = flow_ids or [0] * n
    num_flows = max(flow_ids) + 1 if flow_ids else 1
    flows = [
        FlowKey.from_strings("10.0.0.%d" % (i + 1), "10.1.0.1", 5000 + i, 80)
        for i in range(num_flows)
    ]
    return Trace(
        arrival_ns=np.array(arrivals, dtype=np.int64),
        size_bytes=np.full(n, 100, dtype=np.int64),
        flow_index=np.array(flow_ids, dtype=np.int64),
        flows=flows,
        name=name,
    )


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Trace(
                arrival_ns=np.array([1, 2]),
                size_bytes=np.array([100]),
                flow_index=np.array([0, 0]),
                flows=[FlowKey(1, 2, 3, 4)],
            )

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            make_trace([5, 3])

    def test_flow_index_range_checked(self):
        with pytest.raises(ValueError):
            Trace(
                arrival_ns=np.array([1]),
                size_bytes=np.array([100]),
                flow_index=np.array([2]),
                flows=[FlowKey(1, 2, 3, 4)],
            )


class TestAccessors:
    def test_duration_and_load(self):
        trace = make_trace([0, 1000])
        assert trace.duration_ns == 1000
        # 200 bytes over 1 us = 1.6 Gbps.
        assert trace.offered_load_bps() == pytest.approx(1.6e9)

    def test_empty_trace(self):
        trace = make_trace([])
        assert len(trace) == 0
        assert trace.duration_ns == 0
        assert trace.offered_load_bps() == 0.0

    def test_packets_materialization(self):
        trace = make_trace([10, 20], flow_ids=[0, 1])
        packets = list(trace.packets())
        assert [p.arrival_ns for p in packets] == [10, 20]
        assert packets[0].flow == trace.flows[0]
        assert packets[1].seq == 1

    def test_flow_packet_counts(self):
        trace = make_trace([1, 2, 3], flow_ids=[0, 0, 1])
        counts = trace.flow_packet_counts()
        assert counts[trace.flows[0]] == 2
        assert counts[trace.flows[1]] == 1

    def test_slice_time(self):
        trace = make_trace([0, 10, 20, 30])
        sub = trace.slice_time(10, 30)
        assert list(sub.arrival_ns) == [10, 20]


class TestMerge:
    def test_merge_sorts_and_remaps(self):
        a = make_trace([0, 100], name="a")
        b = make_trace([50], name="b")
        # Give b a distinct flow key.
        b.flows[0] = FlowKey.from_strings("10.9.9.9", "10.1.0.1", 9999, 80)
        merged = Trace.merge([a, b])
        assert list(merged.arrival_ns) == [0, 50, 100]
        assert merged.num_flows == 2
        assert merged.flows[merged.flow_index[1]] == b.flows[0]

    def test_merge_deduplicates_shared_flows(self):
        a = make_trace([0])
        b = make_trace([10])  # same flow key as a
        merged = Trace.merge([a, b])
        assert merged.num_flows == 1

    def test_merge_empty_list(self):
        with pytest.raises(ValueError):
            Trace.merge([])


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = make_trace([0, 10, 20], flow_ids=[0, 1, 0], name="roundtrip")
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert np.array_equal(loaded.arrival_ns, trace.arrival_ns)
        assert np.array_equal(loaded.size_bytes, trace.size_bytes)
        assert np.array_equal(loaded.flow_index, trace.flow_index)
        assert loaded.flows == trace.flows
        assert loaded.priority is None

    def test_priority_roundtrip(self, tmp_path):
        trace = make_trace([0, 10])
        trace.priority = np.array([1, 2], dtype=np.int64)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert list(loaded.priority) == [1, 2]


def _workload_trace():
    return PoissonWorkload(
        distribution_by_name("uw"),
        WorkloadConfig(load=1.2, duration_ns=8_000_000),
        seed=3,
    ).generate()


def test_partition_covers_trace_and_respects_ports():
    trace = _workload_trace()
    subs = partition_trace_by_port(trace, 4)
    assert len(subs) == 4
    assert sum(len(s.arrival_ns) for s in subs) == len(trace.arrival_ns)
    assignment = trace.flow_index % 4
    for port, sub in enumerate(subs):
        expected = np.flatnonzero(assignment == port)
        np.testing.assert_array_equal(sub.arrival_ns, trace.arrival_ns[expected])
        np.testing.assert_array_equal(sub.flow_index, trace.flow_index[expected])
        assert sub.name.endswith(f":port{port}")
        # A flow never lands on two ports.
        assert set(np.unique(sub.flow_index % 4).tolist()) <= {port}
    with pytest.raises(ConfigError):
        partition_trace_by_port(trace, 0)


def test_partition_single_port_is_whole_trace():
    trace = _workload_trace()
    (sub,) = partition_trace_by_port(trace, 1)
    np.testing.assert_array_equal(sub.arrival_ns, trace.arrival_ns)
    np.testing.assert_array_equal(sub.flow_index, trace.flow_index)
