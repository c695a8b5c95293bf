"""``repro.engine`` building blocks: batch slicing, the queue-monitor batch
kernel and event-stream merging.

Whole-path equivalence (production pipeline == scalar oracle) lives in
``tests/test_fused_ingest.py``; this file covers the pieces underneath it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueuePort
from repro.core.queuemonitor import QueueMonitor
from repro.engine import IngestPipeline
from repro.experiments.runner import drive_printqueue, simulate_workload
from repro.switch.fastpath import merge_event_streams
from repro.switch.packet import FlowKey
from repro.switch.records import FlowColumn, FlowTable


def _monitor_state(qm: QueueMonitor):
    # Flows resolve through the monitor's own table, so two monitors that
    # interned the same flows in a different order still compare equal.
    flows = qm.flow_table.flows
    return (
        qm.top,
        qm._seq,
        qm.overflows,
        tuple(qm.inc_seq.tolist()),
        tuple(None if i < 0 else flows[i] for i in qm.inc_flow_idx.tolist()),
        tuple(qm.dec_seq.tolist()),
    )


def _flow(i: int) -> FlowKey:
    return FlowKey.from_strings(
        f"10.0.{(i >> 8) & 255}.{i & 255}", "10.1.0.1", 5000 + i % 37, 80
    )


def test_pipeline_slices_at_poll_boundaries():
    config = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)
    run = simulate_workload("ws", duration_ns=2_000_000, load=1.2, config=config, seed=5)
    pq = PrintQueuePort(config, d_ns=1200.0, model_dp_read_cost=False)
    # An object-record log is converted on entry.
    pipeline = IngestPipeline(pq, run.records.to_records())
    pipeline.run()
    # The trace spans many set periods, so the stream must have been cut
    # into several poll-aligned batches (one batch would mean no polls).
    assert pipeline.batches_processed > 1
    assert pq.analysis.tw_banks.periodic_flips > 0


def test_unknown_engine_rejected():
    # The deleted tier names are unknown names like any other.
    for engine in ("turbo", "batched", "sharded"):
        with pytest.raises(ValueError, match="unknown ingest engine"):
            drive_printqueue([], None, engine=engine)


def test_apply_batch_matches_scalar_randomized():
    rng = np.random.default_rng(42)
    table = [_flow(i) for i in range(20)]
    for granularity in (1, 3):
        reference = QueueMonitor(levels=32, granularity=granularity)
        port_table = FlowTable()
        port_table.remap(table)  # a fresh table adopts the batch's indices
        batched = QueueMonitor(32, granularity, flow_table=port_table)
        depth = 0
        events = []
        for _ in range(500):
            enq = depth == 0 or rng.random() < 0.55
            depth += 1 if enq else -1
            # Occasionally exceed the register to exercise overflow clamping.
            d = depth + (100 if rng.random() < 0.02 else 0)
            events.append((enq, int(rng.integers(0, 20)), d))
        for enq, fid, d in events:
            if enq:
                reference.on_enqueue(table[fid], d)
            else:
                reference.on_dequeue(table[fid], d)
        for lo, hi in ((0, 3), (3, 120), (120, 500)):
            chunk = events[lo:hi]
            batched.apply_batch(
                np.array([e[0] for e in chunk], dtype=bool),
                FlowColumn(
                    port_table.flows,
                    np.array([e[1] for e in chunk], dtype=np.int64),
                ),
                np.array([e[2] for e in chunk], dtype=np.int64),
            )
        assert _monitor_state(reference) == _monitor_state(batched)


def test_apply_batch_empty_is_noop():
    qm = QueueMonitor(levels=8)
    empty = np.array([], dtype=np.int64)
    qm.apply_batch(np.array([], dtype=bool), FlowColumn([], empty), empty)
    assert qm._seq == 0 and qm.top == 0


# ---------------------------------------------------------------------------
# stream merging


def _naive_merge(enq, deq):
    # Tie rule: an enqueue at t precedes a dequeue at t (a packet cannot
    # leave before the packet arriving at the same instant is counted).
    events = sorted(
        [(int(t), 0, i) for i, t in enumerate(enq)]
        + [(int(t), 1, i) for i, t in enumerate(deq)]
    )
    return events


def test_merge_event_streams_matches_naive_merge():
    rng = np.random.default_rng(9)
    n = 400
    enq = np.sort(rng.integers(0, 5_000, size=n)).astype(np.int64)
    deq = np.sort(enq + rng.integers(1, 3_000, size=n)).astype(np.int64)
    stream = merge_event_streams(enq, deq)
    expected = _naive_merge(enq, deq)
    got = [
        (int(t), 0 if e else 1, int(r))
        for t, e, r in zip(stream.time_ns, stream.is_enqueue, stream.record_index)
    ]
    assert got == expected
    depth = np.cumsum(np.where(stream.is_enqueue, 1, -1))
    assert np.array_equal(depth, stream.depth_after)
    assert depth.min() >= 0 and depth[-1] == 0


@settings(max_examples=200, deadline=None)
@given(
    stamps=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60),
    enqueues_sorted=st.booleans(),
)
def test_merge_event_streams_matches_naive_merge_property(stamps, enqueues_sorted):
    """Any log, ties within and across the two sides, FIFO-sorted enqueues
    or not (the priority-scheduler case), empty included."""
    enq = np.array([s[0] for s in stamps], dtype=np.int64)
    if enqueues_sorted:
        enq = np.sort(enq)
    deq = np.sort(np.array([s[1] for s in stamps], dtype=np.int64))
    stream = merge_event_streams(enq, deq)
    expected = _naive_merge(enq, deq)
    got = [
        (int(t), 0 if e else 1, int(r))
        for t, e, r in zip(stream.time_ns, stream.is_enqueue, stream.record_index)
    ]
    assert got == expected
    steps = [1 if side == 0 else -1 for _, side, _ in expected]
    assert stream.depth_after.tolist() == np.cumsum(steps, dtype=np.int64).tolist()


def test_merge_event_streams_enqueue_wins_ties():
    enq = np.array([0, 10], dtype=np.int64)
    deq = np.array([10, 20], dtype=np.int64)
    stream = merge_event_streams(enq, deq)
    # At t=10 the enqueue of record 1 must precede the dequeue of record 0.
    assert stream.is_enqueue.tolist() == [True, True, False, False]
    assert stream.depth_after.min() >= 1 or stream.depth_after.tolist()[-1] == 0


def test_merge_event_streams_unsorted_enqueues_fall_back():
    # FIFO dequeue order does not imply enqueue order under priority
    # scheduling; the merge must sort the enqueue side when needed.
    enq = np.array([50, 10, 30], dtype=np.int64)
    deq = np.array([60, 70, 80], dtype=np.int64)
    stream = merge_event_streams(enq, deq)
    enq_events = [
        (int(t), int(r))
        for t, e, r in zip(stream.time_ns, stream.is_enqueue, stream.record_index)
        if e
    ]
    assert enq_events == [(10, 1), (30, 2), (50, 0)]


def test_merge_event_streams_rejects_unsorted_dequeues():
    enq = np.array([0, 1], dtype=np.int64)
    deq = np.array([10, 5], dtype=np.int64)
    with pytest.raises(ValueError):
        merge_event_streams(enq, deq)
