"""Poisson workload generator.

Reproduces the trace synthesis of Section 7.1: "Flows and packets arrive
according to Poisson processes", with flow sizes drawn from a configured
distribution, scaled so that the offered load on the bottleneck port
oscillates around (and during bursts above) the 10 Gbps drain rate —
the condition under which the paper's queue depths of 1k-20k+ build up.

Within a flow, packets are spaced by an exponential inter-packet gap whose
mean corresponds to the flow's pacing rate; every packet also receives a
small random jitter, modelling the end-host/link randomization the paper
relies on for near-random entry into time-window cells (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.switch.packet import PROTO_TCP, FlowKey
from repro.traffic.arrivals import ArrivalProcess, PoissonArrivals
from repro.traffic.distributions import FlowSizeDistribution
from repro.traffic.trace import Trace
from repro.units import DEFAULT_LINK_RATE_BPS, NS_PER_SEC

if TYPE_CHECKING:
    from repro.switch.records import RecordBatch


@dataclass
class WorkloadConfig:
    """Parameters of a Poisson workload.

    Attributes
    ----------
    load:
        Average offered load as a fraction of ``link_rate_bps``.  Values
        near or above 1.0 create the sustained congestion regimes the
        paper studies.
    flow_pacing_rate_bps:
        Mean sending rate of an individual flow.  Smaller values spread a
        flow's packets over time; larger values make flows burstier.
    jitter_ns:
        Uniform per-packet arrival jitter amplitude.
    duration_ns:
        Trace length (arrival horizon).
    """

    load: float = 1.1
    link_rate_bps: int = DEFAULT_LINK_RATE_BPS
    duration_ns: int = 20_000_000  # 20 ms
    flow_pacing_rate_bps: int = 2_000_000_000  # 2 Gbps per active flow
    jitter_ns: int = 500
    subnet: int = 0x0A000000  # 10.0.0.0/8
    proto: int = PROTO_TCP
    priority: int = 0
    #: Per-flow inter-packet arrival model (an ArrivalProcess).  None =
    #: Poisson gaps at the flow pacing rate.
    arrival_process: Optional[ArrivalProcess] = None

    def __post_init__(self) -> None:
        if self.load <= 0:
            raise ValueError(f"non-positive load: {self.load}")
        if self.duration_ns <= 0:
            raise ValueError(f"non-positive duration: {self.duration_ns}")
        if self.flow_pacing_rate_bps <= 0:
            raise ValueError("non-positive flow pacing rate")


def sort_arrivals(arrival: np.ndarray) -> np.ndarray:
    """Sort an int64 arrival column in place; return the order applied.

    The order is ``np.argsort(arrival, kind="stable")``.  Packed
    ``(arrival << bits) | position`` keys are unique, so one plain sort of
    them, built in ``arrival``'s own buffer, yields the same order without
    an index sort.  Packing needs ``|arrival| < 2**(63 - bits)``; a trace
    whose observed arrivals do not fit (long and sparse) is argsorted.
    """
    n = len(arrival)
    bits = max(0, n - 1).bit_length()
    limit = 1 << (63 - bits)
    if n and -limit <= int(arrival.min()) and int(arrival.max()) < limit:
        arrival <<= bits
        arrival |= np.arange(n, dtype=np.int64)
        arrival.sort()
        order = arrival & ((1 << bits) - 1)
        arrival >>= bits
        return order
    order = np.argsort(arrival, kind="stable")
    arrival[:] = arrival[order]
    return order


class PoissonWorkload:
    """Generates traces with Poisson flow arrivals.

    Parameters
    ----------
    distribution:
        The flow-size / packet-size distribution (WS, DM, UW-like...).
    config:
        Load and timing parameters.
    seed:
        RNG seed; identical seeds give identical traces.
    """

    def __init__(
        self,
        distribution: FlowSizeDistribution,
        config: Optional[WorkloadConfig] = None,
        seed: int = 1,
    ) -> None:
        self.distribution = distribution
        self.config = config or WorkloadConfig()
        self.seed = seed

    #: Safety cap on the number of flows one trace may contain.
    MAX_FLOWS = 500_000

    def generate(self) -> Trace:
        """Build a trace whose in-window offered load matches the target.

        With heavy-tailed flow sizes, the sample mean of a small flow
        population sits far below the distribution mean, so fixing the
        flow count from the analytic arrival rate badly under-loads short
        traces.  Instead, flows (with uniform start times, the conditional
        distribution of Poisson arrivals) are added until the byte budget
        ``load * link_rate * duration`` is reached.  Packet trains are
        trimmed at the horizon — a long-lived elephant only contributes
        the bytes its pacing rate fits into the window, as in a real
        capture.
        """
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        target_bytes = cfg.load * cfg.link_rate_bps * cfg.duration_ns / NS_PER_SEC / 8

        flows: List[FlowKey] = []
        arrival_parts: List[np.ndarray] = []
        size_parts: List[np.ndarray] = []
        counts: List[int] = []
        total_bytes = 0.0
        while total_bytes < target_bytes and len(flows) < self.MAX_FLOWS:
            start_ns = int(rng.integers(0, cfg.duration_ns))
            flow_bytes = int(self.distribution.sample_flow_bytes(rng, 1)[0])
            sizes = self._packetize(rng, flow_bytes, cfg.duration_ns - start_ns)
            if len(sizes) == 0:
                continue
            gaps = self._inter_packet_gaps(rng, sizes)
            arrivals = start_ns + np.cumsum(gaps)
            if cfg.jitter_ns > 0:
                arrivals = arrivals + rng.integers(0, cfg.jitter_ns + 1, len(sizes))
            in_window = arrivals < cfg.duration_ns
            if not in_window.any():
                continue
            arrivals = arrivals[in_window]
            sizes = sizes[in_window]
            index = len(flows)
            flows.append(self._flow_key(rng, index))
            arrival_parts.append(arrivals.astype(np.int64))
            size_parts.append(sizes)
            counts.append(len(sizes))
            total_bytes += float(sizes.sum())

        # Packets go in arrival order, ties in flow order: the stable
        # argsort of the flow-by-flow concatenation.  The arrival column is
        # sorted in place, the per-flow parts are dropped once concatenated,
        # and the flow column is one repeat of the per-flow packet counts.
        arrival = np.concatenate(arrival_parts)
        del arrival_parts
        order = sort_arrivals(arrival)
        size = np.concatenate(size_parts)
        del size_parts
        size = size[order]
        flow_index = np.repeat(np.arange(len(flows), dtype=np.int64), counts)[order]
        trace = Trace(
            arrival_ns=arrival,
            size_bytes=size,
            flow_index=flow_index,
            flows=flows,
            priority=None,
            name=f"poisson-{getattr(self.distribution, 'name', 'flows')}",
        )
        return trace

    def generate_records(
        self,
        rate_bps: Optional[int] = None,
        capacity_pkts: Optional[int] = None,
    ) -> "Tuple[Trace, RecordBatch, int]":
        """Generate a trace and queue it, columnar end to end.

        Convenience front door for the ingest pipeline: the generated
        trace's arrival/size/flow-index columns flow straight through the
        vectorised FIFO (:func:`repro.switch.fastpath.fifo_record_batch`)
        into a structured :class:`~repro.switch.records.RecordBatch` —
        no per-packet Python object is built anywhere on the way.
        Returns ``(trace, batch, drops)``.
        """
        from repro.switch.fastpath import fifo_record_batch

        trace = self.generate()
        rate = self.config.link_rate_bps if rate_bps is None else rate_bps
        batch, drops = fifo_record_batch(trace, rate, capacity_pkts)
        return trace, batch, drops

    # -- helpers -------------------------------------------------------------

    def _flow_key(self, rng: np.random.Generator, index: int) -> FlowKey:
        cfg = self.config
        src = cfg.subnet | int(rng.integers(1, 1 << 16))
        dst = cfg.subnet | (1 << 23) | int(rng.integers(1, 1 << 16))
        sport = int(rng.integers(1024, 65536))
        dport = int(rng.integers(1, 1024))
        return FlowKey(src, dst, sport, dport, cfg.proto)

    def _packetize(
        self,
        rng: np.random.Generator,
        flow_bytes: int,
        horizon_ns: Optional[int] = None,
    ) -> np.ndarray:
        """Split a flow's bytes into on-wire packets.

        ``horizon_ns`` bounds how many packets the flow's pacing rate can
        emit before the trace ends, so elephant flows do not materialize
        packet trains far beyond the window just to throw them away.
        """
        typical = self.distribution.typical_packet_bytes
        est_packets = max(1, -(-flow_bytes // typical))
        if horizon_ns is not None:
            pacing_bytes = self.config.flow_pacing_rate_bps * horizon_ns / NS_PER_SEC / 8
            # Factor 2 of slack: exponential gaps undershoot half the time.
            cap = max(1, int(2 * pacing_bytes / typical))
            est_packets = min(est_packets, cap)
        sizes = self.distribution.sample_packet_bytes(rng, est_packets)
        # Trim so the byte total roughly matches the flow size.
        total = np.cumsum(sizes)
        cut = int(np.searchsorted(total, flow_bytes, side="left")) + 1
        return sizes[:cut]

    def _inter_packet_gaps(
        self, rng: np.random.Generator, sizes: np.ndarray
    ) -> np.ndarray:
        """Per-flow inter-packet gaps from the configured arrival model."""
        process = self.config.arrival_process
        if process is None:
            process = PoissonArrivals(self.config.flow_pacing_rate_bps)
        return process.gaps_ns(rng, sizes)
