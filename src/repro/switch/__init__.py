"""Simulated programmable switch substrate.

This package replaces the Intel Tofino testbed of the paper with an
event-driven, single-switch simulator that produces exactly the metadata
PrintQueue consumes (Table 1 of the paper): ``egress_spec``,
``enq_timestamp``, ``deq_timedelta``, and ``enq_qdepth``.

Public entry points:

* :class:`~repro.switch.packet.Packet` / :class:`~repro.switch.packet.FlowKey`
* :class:`~repro.switch.switchsim.Switch` — the event-driven simulator
* :class:`~repro.switch.telemetry.GroundTruthRecorder` — lossless dequeue log
* :func:`~repro.switch.fastpath.fifo_timestamps` — vectorised FIFO fast path
* :class:`~repro.switch.records.RecordBatch` — the columnar dequeue log
  (one structured record array) consumed by the ingest pipeline
"""

from repro.switch.packet import FlowKey, Packet, PROTO_TCP, PROTO_UDP
from repro.switch.queue import EgressQueue, QueueSample
from repro.switch.scheduler import (
    FifoScheduler,
    Scheduler,
    StrictPriorityScheduler,
)
from repro.switch.port import EgressPort
from repro.switch.switchsim import Switch, SwitchStats
from repro.switch.telemetry import DequeueRecord, GroundTruthRecorder, TelemetryHeader
from repro.switch.fastpath import fifo_record_batch, fifo_timestamps
from repro.switch.records import (
    PACKET_RECORD_DTYPE,
    FlowColumn,
    FlowTable,
    RecordBatch,
    as_record_batch,
)

__all__ = [
    "FlowKey",
    "Packet",
    "PROTO_TCP",
    "PROTO_UDP",
    "EgressQueue",
    "QueueSample",
    "Scheduler",
    "FifoScheduler",
    "StrictPriorityScheduler",
    "EgressPort",
    "Switch",
    "SwitchStats",
    "TelemetryHeader",
    "DequeueRecord",
    "GroundTruthRecorder",
    "fifo_timestamps",
    "fifo_record_batch",
    "PACKET_RECORD_DTYPE",
    "FlowColumn",
    "FlowTable",
    "RecordBatch",
    "as_record_batch",
]
