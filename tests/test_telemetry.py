"""Unit tests for the ground-truth recorder and telemetry headers."""

import pytest

from repro.errors import SimulationError
from repro.switch.packet import FlowKey, Packet
from repro.switch.port import EgressPort
from repro.switch.switchsim import Switch
from repro.switch.telemetry import DequeueRecord, GroundTruthRecorder
from repro.units import GBPS

FLOW_A = FlowKey.from_strings("10.0.0.1", "10.1.0.1", 5000, 80)
FLOW_B = FlowKey.from_strings("10.0.0.2", "10.1.0.1", 5001, 80)


def record(flow, enq, deq, depth=0):
    return DequeueRecord(flow, 100, enq, deq, depth)


class TestDequeueRecord:
    def test_queuing_delay(self):
        r = record(FLOW_A, 100, 250)
        assert r.queuing_delay == 150

    def test_header_view(self):
        r = record(FLOW_A, 100, 250, depth=7)
        h = r.header
        assert h.enq_timestamp == 100
        assert h.deq_timestamp == 250
        assert h.enq_qdepth == 7
        assert h.deq_timedelta == 150


class TestRecorderHook:
    def test_records_via_switch(self):
        recorder = GroundTruthRecorder()
        port = EgressPort(0, 10 * GBPS)
        port.add_egress_hook(recorder.hook)
        switch = Switch([port])
        switch.run_trace([Packet(FLOW_A, 1500, 0), Packet(FLOW_B, 1500, 0)])
        assert len(recorder) == 2
        assert recorder.records[0].flow == FLOW_A
        assert recorder.records[1].deq_timestamp == 1200

    def test_out_of_order_rejected(self):
        recorder = GroundTruthRecorder()
        p1 = Packet(FLOW_A, 100, 0)
        p1.enq_timestamp, p1.deq_timedelta, p1.enq_qdepth = 0, 100, 0
        p2 = Packet(FLOW_A, 100, 0)
        p2.enq_timestamp, p2.deq_timedelta, p2.enq_qdepth = 0, 50, 0
        recorder.hook(p1)
        with pytest.raises(SimulationError):
            recorder.hook(p2)


class TestIntervalQueries:
    def _recorder(self):
        recorder = GroundTruthRecorder()
        # Hand-build records: A at deq 10,20,30; B at 20,40.
        for flow, enq, deq in [
            (FLOW_A, 0, 10),
            (FLOW_A, 5, 20),
            (FLOW_B, 6, 20),
            (FLOW_A, 7, 30),
            (FLOW_B, 8, 40),
        ]:
            p = Packet(flow, 100, 0)
            p.enq_timestamp, p.deq_timedelta, p.enq_qdepth = enq, deq - enq, 0
            recorder.hook(p)
        return recorder

    def test_flow_counts_inclusive(self):
        recorder = self._recorder()
        counts = recorder.flow_counts(10, 30)
        assert counts == {FLOW_A: 3, FLOW_B: 1}

    def test_flow_counts_empty_interval(self):
        recorder = self._recorder()
        assert recorder.flow_counts(100, 200) == {}

