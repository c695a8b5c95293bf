"""The trace container: a columnar batch of packets.

Traces are stored as parallel numpy arrays (arrival time, size, flow
index, priority) plus a flow table mapping flow indices to
:class:`~repro.switch.packet.FlowKey` objects.  This keeps generation and
the FIFO fast path vectorised while still materializing ``Packet`` objects
for the event-driven simulator when needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigError
from repro.switch.packet import FlowKey, Packet


@dataclass
class Trace:
    """A packet trace sorted by arrival time."""

    arrival_ns: np.ndarray  # int64
    size_bytes: np.ndarray  # int64
    flow_index: np.ndarray  # int64 indices into `flows`
    flows: List[FlowKey]
    priority: Optional[np.ndarray] = None  # int64; None = all zero
    name: str = "trace"

    def __post_init__(self) -> None:
        n = len(self.arrival_ns)
        if len(self.size_bytes) != n or len(self.flow_index) != n:
            raise ValueError("trace arrays must have equal length")
        if self.priority is not None and len(self.priority) != n:
            raise ValueError("priority array length mismatch")
        if n and np.any(np.diff(self.arrival_ns) < 0):
            raise ValueError("trace must be sorted by arrival time")
        if n and (self.flow_index.min() < 0 or self.flow_index.max() >= len(self.flows)):
            raise ValueError("flow_index out of range")

    def __len__(self) -> int:
        return len(self.arrival_ns)

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    @property
    def duration_ns(self) -> int:
        if len(self) == 0:
            return 0
        return int(self.arrival_ns[-1] - self.arrival_ns[0])

    def total_bytes(self) -> int:
        return int(self.size_bytes.sum())

    def offered_load_bps(self) -> float:
        """Average offered bit rate over the trace duration."""
        duration = self.duration_ns
        if duration == 0:
            return 0.0
        return self.total_bytes() * 8 / (duration / 1e9)

    def packets(self) -> Iterator[Packet]:
        """Materialize ``Packet`` objects in arrival order (lazy)."""
        priority = self.priority
        for i in range(len(self)):
            yield Packet(
                flow=self.flows[int(self.flow_index[i])],
                size_bytes=int(self.size_bytes[i]),
                arrival_ns=int(self.arrival_ns[i]),
                priority=int(priority[i]) if priority is not None else 0,
                seq=i,
            )

    def flow_packet_counts(self) -> Dict[FlowKey, int]:
        """Total per-flow packet counts over the whole trace."""
        counts = np.bincount(self.flow_index, minlength=len(self.flows))
        return {
            self.flows[i]: int(counts[i]) for i in range(len(self.flows)) if counts[i]
        }

    def slice_time(self, start_ns: int, end_ns: int) -> "Trace":
        """Sub-trace of packets arriving in ``[start_ns, end_ns)``."""
        lo = int(np.searchsorted(self.arrival_ns, start_ns, side="left"))
        hi = int(np.searchsorted(self.arrival_ns, end_ns, side="left"))
        return Trace(
            arrival_ns=self.arrival_ns[lo:hi].copy(),
            size_bytes=self.size_bytes[lo:hi].copy(),
            flow_index=self.flow_index[lo:hi].copy(),
            flows=self.flows,
            priority=None if self.priority is None else self.priority[lo:hi].copy(),
            name=f"{self.name}[{start_ns}:{end_ns}]",
        )

    @staticmethod
    def merge(traces: Sequence["Trace"], name: str = "merged") -> "Trace":
        """Merge traces by arrival time, remapping flow tables."""
        if not traces:
            raise ValueError("nothing to merge")
        flows: List[FlowKey] = []
        flow_map: Dict[FlowKey, int] = {}
        parts_idx = []
        for trace in traces:
            remap = np.empty(len(trace.flows), dtype=np.int64)
            for j, key in enumerate(trace.flows):
                if key not in flow_map:
                    flow_map[key] = len(flows)
                    flows.append(key)
                remap[j] = flow_map[key]
            parts_idx.append(remap[trace.flow_index])
        arrival = np.concatenate([t.arrival_ns for t in traces])
        order = np.argsort(arrival, kind="stable")
        size = np.concatenate([t.size_bytes for t in traces])[order]
        index = np.concatenate(parts_idx)[order]
        if any(t.priority is not None for t in traces):
            prio = np.concatenate(
                [
                    t.priority
                    if t.priority is not None
                    else np.zeros(len(t), dtype=np.int64)
                    for t in traces
                ]
            )[order]
        else:
            prio = None
        return Trace(arrival[order], size, index, flows, prio, name=name)

    # -- persistence --------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Save to an ``.npz`` file (flow keys flattened to columns)."""
        flow_cols = np.array(
            [
                (k.src_ip, k.dst_ip, k.src_port, k.dst_port, k.proto)
                for k in self.flows
            ],
            dtype=np.int64,
        ).reshape(len(self.flows), 5)
        np.savez_compressed(
            Path(path),
            arrival_ns=self.arrival_ns,
            size_bytes=self.size_bytes,
            flow_index=self.flow_index,
            flow_tuples=flow_cols,
            priority=(
                self.priority
                if self.priority is not None
                else np.zeros(0, dtype=np.int64)
            ),
            name=np.array(self.name),
        )

    @staticmethod
    def load(path: Union[str, Path]) -> "Trace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            flows = [
                FlowKey(int(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[4]))
                for r in data["flow_tuples"]
            ]
            priority = data["priority"]
            return Trace(
                arrival_ns=data["arrival_ns"],
                size_bytes=data["size_bytes"],
                flow_index=data["flow_index"],
                flows=flows,
                priority=None if priority.size == 0 else priority,
                name=str(data["name"]),
            )


def partition_trace_by_port(trace: Trace, num_ports: int) -> List[Trace]:
    """Split a trace into per-egress-port sub-traces, deterministically.

    Flows map to ports by ``flow_index % num_ports`` — a stand-in for a
    forwarding table that is stable across runs and engines, so port
    counts can vary while every flow's port (hence its queue dynamics)
    stays fixed for a given ``num_ports``.  Each sub-trace keeps the full
    flow table (indices stay valid) and its arrays remain arrival-sorted.
    """
    if num_ports < 1:
        raise ConfigError(f"need at least one port, got {num_ports}")
    ports: List[Trace] = []
    assignment = trace.flow_index % num_ports
    for port in range(num_ports):
        mask = assignment == port
        ports.append(
            Trace(
                arrival_ns=trace.arrival_ns[mask],
                size_bytes=trace.size_bytes[mask],
                flow_index=trace.flow_index[mask],
                flows=trace.flows,
                priority=None if trace.priority is None else trace.priority[mask],
                name=f"{trace.name}:port{port}",
            )
        )
    return ports
