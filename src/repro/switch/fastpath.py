"""Vectorised FIFO fast path.

The benchmark harness needs to push millions of packets through a single
FIFO bottleneck per configuration.  For that common case the queueing
recurrence

    start[i] = max(arrival[i], finish[i-1]);  finish[i] = start[i] + tx[i]

is computed by prefix scans over numpy arrays — the Python-level loop is
over *blocks* of arrivals, not packets — producing exactly the same
timestamps (integer ns) and enqueue-time depths as the event-driven
:class:`~repro.switch.switchsim.Switch` with a FIFO scheduler — a property
the test suite checks record-for-record.  Three identities make the scan
exact (``a`` arrivals, ``c = ceil(tx_ps / 1000)`` whole-ns wire times,
``C = cumsum(c) - c``):

1. *Unbounded queue.*  Every start is an integer ns, so
   ``ceil(max(a*1000, wire_free_ps) / 1000) = max(a, prev_start + c_prev)``
   and the recurrence unrolls to ``deq = C + maximum.accumulate(a - C)``;
   a packet has left before arrival ``i`` iff its ``deq < a[i]``, so
   ``enq_qdepth = arange(n) - searchsorted(deq, a, "left")``.
2. *Tail drop, queue long.*  Take the arrivals no later than the dequeue
   time of the last packet already queued (a *generation block*).  Nothing
   accepted inside the block can leave inside it, so the departures
   ``dep = searchsorted(pending_deq, a_block, "left")`` are known up
   front, the depth the block would reach with no drops is
   ``q0 + arange(1, m+1) - dep``, and the drops so far are the running
   peak of its excess over the capacity, floored at 0 (the one-sided
   reflection of the walk at ``cap``).  An arrival is accepted iff that
   peak did not move; accepted packets all find the wire busy, so their
   dequeue times are ``wire_free + exclusive-cumsum(c[accepted])``.
3. *Tail drop, queue short or empty.*  A generation block would be a
   handful of packets, so a block is run through (1) as if unbounded and
   committed up to its first ``depth + 1 > cap``; at least ``cap - depth``
   arrivals always commit, and the block size doubles while blocks commit
   whole and shrinks to twice the committed prefix when they do not (a
   fixed large block would be quadratic for a small buffer).

Cost: O(n) array work plus one Python iteration per block.  The
departures before each arrival of a block (the ``searchsorted`` counts
above) come from :func:`departures_before`: the block's arrivals and the
pending dequeue times are two sorted runs, so one stable argsort of their
concatenation is a single linear merge, where a search costs a binary
search per arrival.  A saturated
block holds about ``cap * load`` arrivals, so buffers under ~32 packets
make blocks shorter than numpy's per-call overhead and run slower than a
per-packet loop would (cap 8: about 2x slower, cap 1: about 15x).  Nothing
in this repository models a buffer that small; switch-sized buffers and
the unbounded queue run more than 10x faster than the loop did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.units import DEFAULT_LINK_RATE_BPS, PS_PER_NS

if TYPE_CHECKING:  # runtime imports would cycle through repro.switch
    from repro.switch.records import RecordBatch
    from repro.traffic.trace import Trace


@dataclass
class MergedEventStream:
    """A dequeue log merged into one time-ordered enqueue/dequeue stream.

    Event ``j`` refers to record ``record_index[j]``; ``is_enqueue[j]``
    says which side, ``time_ns[j]`` when it happened, and
    ``depth_after[j]`` the queue depth (in packets) right after the event
    — the exact values the scalar driver would have passed to
    ``process_enqueue`` / ``process_dequeue``.
    """

    time_ns: np.ndarray  # int64 ns
    is_enqueue: np.ndarray  # bool
    record_index: np.ndarray  # int64 indices into the record log
    depth_after: np.ndarray  # int64 packets


def merge_event_streams(
    enq_timestamp: np.ndarray, deq_timestamp: np.ndarray
) -> MergedEventStream:
    """Merge a dequeue-ordered record log into one event stream.

    Enqueues are ordered by enqueue timestamp (ties by record position),
    dequeues keep the log order, and an enqueue wins a tie against a
    dequeue at the same instant — the same discipline as the scalar
    event loop in :func:`repro.experiments.runner.drive_printqueue_scalar`.
    Because dequeues keep the log order, the ``j``-th dequeue event of the
    stream is record ``j``'s.
    """
    enq_timestamp = np.asarray(enq_timestamp, dtype=np.int64)
    deq_timestamp = np.asarray(deq_timestamp, dtype=np.int64)
    if enq_timestamp.shape != deq_timestamp.shape or enq_timestamp.ndim != 1:
        raise ValueError("expected matching 1-D timestamp arrays")
    n = len(enq_timestamp)
    if n and np.any(enq_timestamp[1:] < enq_timestamp[:-1]):
        enq_order: Optional[np.ndarray] = np.argsort(enq_timestamp, kind="stable")
        enq_sorted = enq_timestamp[enq_order]
    else:
        # FIFO logs arrive enqueue-sorted already (dequeue order equals
        # enqueue order), so the sort usually costs one comparison pass.
        enq_order = None
        enq_sorted = enq_timestamp
    if n and np.any(deq_timestamp[1:] < deq_timestamp[:-1]):
        raise ValueError("dequeue log must be in dequeue order")
    # Both sides are now sorted runs, so the stable argsort of their
    # concatenation is one timsort merge.  Enqueues go first, which is the
    # tie rule (an enqueue wins a tie against a dequeue at the same
    # instant); stability keeps each side in its own order, so the
    # dequeues stay in log order.  Position p < n in the concatenation is
    # the p-th enqueue, p >= n the record p - n's dequeue.
    both = np.concatenate((enq_sorted, deq_timestamp))
    order = np.argsort(both, kind="stable")
    times = both[order]
    del both  # before record_index and depth_after exist: peak memory
    is_enqueue = order < n
    record_index = order - n * ~is_enqueue
    if enq_order is not None:
        record_index[is_enqueue] = enq_order[record_index[is_enqueue]]
    # +1 per enqueue, -1 per dequeue, summed in place.
    depth_after = is_enqueue.astype(np.int64)
    depth_after *= 2
    depth_after -= 1
    np.cumsum(depth_after, out=depth_after)
    return MergedEventStream(
        time_ns=times,
        is_enqueue=is_enqueue,
        record_index=record_index,
        depth_after=depth_after,
    )


@dataclass
class FifoResult:
    """Arrays describing one FIFO pass; all times are integer nanoseconds.

    ``kept`` maps positions in the output arrays back to indices in the
    input arrival arrays (tail-dropped packets are removed).  Outputs are
    ordered by arrival which, for a FIFO, equals dequeue order.
    """

    enq_timestamp: np.ndarray  # int64 ns
    deq_timestamp: np.ndarray  # int64 ns
    enq_qdepth: np.ndarray  # int64, depth in packets at enqueue (excl. self)
    kept: np.ndarray  # int64 indices into the input arrays
    drops: int


#: First speculative block size; doubles while blocks commit whole and
#: falls back to twice the committed prefix (at least this) when not.
_SPECULATE_START = 256


def departures_before(arrivals: np.ndarray, pending: np.ndarray) -> np.ndarray:
    """Per arrival, how many ``pending`` departures are strictly earlier.

    Equal to ``np.searchsorted(pending, arrivals, "left")`` for two sorted
    int64 runs.  Their concatenation is two sorted runs, so the stable
    argsort is a single timsort merge; arrivals go first, so a departure
    at an arrival's own instant sorts after it (strict ``<``).  An
    arrival's merged position is its rank plus the departures before it.
    """
    m = len(arrivals)
    order = np.argsort(np.concatenate((arrivals, pending)), kind="stable")
    return np.flatnonzero(order < m) - np.arange(m)


def fifo_timestamps(
    arrival_ns: np.ndarray,
    size_bytes: np.ndarray,
    rate_bps: int,
    capacity_pkts: Optional[int] = None,
) -> FifoResult:
    """Run a FIFO bottleneck over sorted arrivals.

    Parameters
    ----------
    arrival_ns:
        Integer arrival times, must be non-decreasing.
    size_bytes:
        Packet sizes, same length.
    rate_bps:
        Drain rate of the port.
    capacity_pkts:
        Optional tail-drop capacity in packets.

    Notes
    -----
    Depth accounting is in packets (the default of ``EgressQueue``).  The
    transmitter is work-conserving with exact picosecond accounting: a
    packet's transmission *starts* at its dequeue timestamp, and the wire
    is busy for ``size * 8 / rate`` after that, exactly as
    ``EgressPort._transmit`` behaves.

    The pass is the block-wise prefix scan of the module docstring: each
    iteration of the ``while`` handles either a generation block (identity
    2, when it is at least as long as the queue's free room) or a
    speculative unbounded block (identities 1 and 3).  An unbounded queue
    is a capacity the trace cannot reach and is one speculative block.
    Buffers under ~32 packets are correct but slow (see the module
    docstring).
    """
    arrival_ns = np.asarray(arrival_ns, dtype=np.int64)
    size_bytes = np.asarray(size_bytes, dtype=np.int64)
    if arrival_ns.shape != size_bytes.shape:
        raise ValueError("arrival and size arrays must have the same shape")
    if arrival_ns.ndim != 1:
        raise ValueError("expected 1-D arrays")
    if len(arrival_ns) == 0:
        empty = np.empty(0, dtype=np.int64)
        return FifoResult(empty, empty.copy(), empty.copy(), empty.copy(), 0)
    if np.any(np.diff(arrival_ns) < 0):
        raise ValueError("arrival times must be non-decreasing")
    if rate_bps <= 0:
        raise ValueError(f"non-positive rate: {rate_bps}")
    if capacity_pkts is not None and capacity_pkts <= 0:
        raise ValueError(f"non-positive capacity: {capacity_pkts}")

    n = len(arrival_ns)
    tx_ps = (size_bytes * (8 * PS_PER_NS * 1_000_000_000)) // rate_bps
    wire_ns = -(-tx_ps // PS_PER_NS)  # ceil: c in the module docstring
    # No buffer is a buffer the trace cannot fill: depth < n always.
    cap = n if capacity_pkts is None else capacity_pkts

    deq = np.empty(n, dtype=np.int64)
    qdepth = np.empty(n, dtype=np.int64)
    kept = np.empty(n, dtype=np.int64)
    out = 0  # packets accepted so far; deq[:out] is final and sorted
    head = 0  # deq[:head] left before arrival i; deq[head:out] is pending
    wire_free = 0  # ns at which the next accepted packet may start
    spec = _SPECULATE_START
    i = 0
    while i < n:
        # Strict <: the event-driven Switch processes an arrival before a
        # dequeue carrying the same timestamp, so a packet dequeuing at
        # exactly this instant still counts towards the arrival's depth.
        head += int(np.searchsorted(deq[head:out], arrival_ns[i], "left"))
        pending = out - head
        room = cap - pending
        # Generation block: the arrivals no later than the last queued
        # departure, so nothing accepted inside it leaves inside it.
        m = (
            int(np.searchsorted(arrival_ns[i:], deq[out - 1], "right"))
            if pending
            else 0
        )
        if m >= room:
            dep = departures_before(arrival_ns[i : i + m], deq[head:out])
            # Post-arrival depth over cap had nothing been dropped.  Entry
            # 0 is the empty prefix, so the running peak is never negative:
            # it is the number of tail drops so far.
            excess = np.empty(m + 1, dtype=np.int64)
            excess[0] = 0
            excess[1:] = (pending - cap) + np.arange(1, m + 1) - dep
            lost = np.maximum.accumulate(excess)
            acc = np.flatnonzero(lost[1:] == lost[:-1])
            k = len(acc)
            if k:
                wire = wire_ns[i : i + m][acc]
                busy = np.cumsum(wire)
                deq[out : out + k] = wire_free + busy - wire
                qdepth[out : out + k] = (cap - 1) + (excess - lost)[1:][acc]
                kept[out : out + k] = i + acc
                wire_free += int(busy[-1])
            head += int(dep[-1])
            out += k
            i += m
        else:
            # Speculate that the next `size` arrivals all fit; the first
            # `room` of them must, so the block always advances.
            size = min(max(room, spec), n - i)
            arrivals = arrival_ns[i : i + size]
            wire = wire_ns[i : i + size]
            busy = np.cumsum(wire) - wire
            start = busy + np.maximum(
                wire_free, np.maximum.accumulate(arrivals - busy)
            )
            deq[out : out + size] = start
            dep = departures_before(arrivals, deq[head : out + size])
            depth = pending + np.arange(size) - dep
            full = np.flatnonzero(depth >= cap)
            v = int(full[0]) if len(full) else size
            qdepth[out : out + v] = depth[:v]
            kept[out : out + v] = np.arange(i, i + v)
            wire_free = int(start[v - 1] + wire[v - 1])
            head += int(dep[v - 1])
            spec = 2 * spec if v == size else max(2 * v, _SPECULATE_START)
            out += v
            i += v

    kept = kept[:out]
    return FifoResult(
        enq_timestamp=arrival_ns[kept],
        deq_timestamp=deq[:out].copy(),
        enq_qdepth=qdepth[:out].copy(),
        kept=kept,
        drops=n - out,
    )


def fifo_record_batch(
    trace: "Trace",
    rate_bps: int = DEFAULT_LINK_RATE_BPS,
    capacity_pkts: Optional[int] = None,
) -> "Tuple[RecordBatch, int]":
    """FIFO pass returning the structured record-array dequeue log.

    The columnar twin of ``run_trace_through_fifo``: the same
    :func:`fifo_timestamps` recurrence, but the kept packets come back as
    a :class:`~repro.switch.records.RecordBatch` built directly from the
    result arrays plus the trace's flow-index/size columns — no
    per-packet ``DequeueRecord`` objects.  Returns ``(batch, drops)``.
    """
    # Local import: records depends on this module for FifoResult.
    from repro.switch.records import RecordBatch

    result = fifo_timestamps(
        trace.arrival_ns, trace.size_bytes, rate_bps, capacity_pkts
    )
    kept = result.kept
    batch = RecordBatch.from_fifo(
        result,
        trace.flow_index[kept],
        trace.size_bytes[kept],
        trace.flows,
    )
    return batch, result.drops
