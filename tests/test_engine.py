"""``repro.engine`` building blocks: batch slicing, the queue-monitor batch
kernel, event-stream merging and the parallel sweep fabric.

Whole-path equivalence (production pipeline == scalar oracle) lives in
``tests/test_fused_ingest.py``; this file covers the pieces underneath it.
"""

import os

import numpy as np
import pytest

from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueuePort
from repro.core.queuemonitor import QueueMonitor
from repro.engine import (
    IngestPipeline,
    ParallelSweep,
    ResultCache,
    SweepCell,
    intern_config,
)
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


# ---------------------------------------------------------------------------
# the parallel sweep fabric


def test_result_cache_counts_hits_and_misses():
    cache = ResultCache()
    calls = []

    def compute():
        calls.append(1)
        return 42

    assert cache.get_or("a", compute) == 42
    assert cache.get_or("a", compute) == 42
    assert len(calls) == 1
    assert (cache.hits, cache.misses) == (1, 1)
    cache.put("b", 7)
    assert "b" in cache and cache.get("b") == 7
    cache.clear()
    assert len(cache) == 0 and cache.get("a") is None


def test_parallel_sweep_caches_and_dedups():
    evaluated = []

    def worker(cell):
        evaluated.append(cell)
        return cell * 10

    sweep = ParallelSweep(worker=worker, max_workers=1)
    results = sweep.run([3, 1, 3, 2])
    assert results == [30, 10, 30, 20]
    assert sorted(evaluated) == [1, 2, 3]  # duplicate evaluated once
    assert sweep.last_execution == "serial"
    again = sweep.run([1, 2, 3])
    assert again == [10, 20, 30]
    assert evaluated.count(1) == 1  # fully served from cache
    assert sweep.last_execution == "cached"


def test_parallel_sweep_pool_falls_back_on_unpicklable_worker():
    sweep = ParallelSweep(worker=lambda c: c + 1, max_workers=4)
    assert sweep.run([1, 2, 3]) == [2, 3, 4]
    assert sweep.last_execution in ("pool", "serial")


def test_sweep_cell_is_hashable_cache_key():
    config = PrintQueueConfig(m0=6, k=8, alpha=2, T=3)
    a = SweepCell(workload="ws", config=config, duration_ns=1000)
    b = SweepCell(workload="ws", config=config, duration_ns=1000)
    assert a == b and hash(a) == hash(b)
    assert a != SweepCell(workload="ws", config=config, duration_ns=1000, port=1)
    # the fault profile is part of the cache key: a faulted run must never
    # be served from a fault-free cell's cached result.
    faulted = SweepCell(workload="ws", config=config, duration_ns=1000, faults="chaos")
    assert a != faulted and hash(faulted) == hash(faulted)


# ---------------------------------------------------------------------------
# sweep resilience: worker bugs vs pool-infrastructure failures
#
# Cells are (parent_pid, value) pairs so module-level workers — picklable
# by reference under the fork start method — can tell whether they run in
# the parent (serial / in-process retry) or in a pool child.


def _pool_available() -> bool:
    """Whether this environment can actually run a process pool."""
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            return list(pool.map(abs, [-1])) == [1]
    except Exception:
        return False


def _fails_in_child_worker(cell):
    """Raises only inside pool children; succeeds on in-process retry."""
    parent_pid, value = cell
    if os.getpid() != parent_pid:
        raise RuntimeError("transient child-only failure")
    return value * 10


def _always_fails_worker(cell):
    """A genuine worker bug: fails everywhere, retries included."""
    raise ValueError(f"cell bomb: {cell!r}")


def _crashes_child_worker(cell):
    """Kills the pool child outright, breaking the pool itself."""
    parent_pid, value = cell
    if os.getpid() != parent_pid:
        os._exit(1)
    return value * 10


@pytest.mark.skipif(not _pool_available(), reason="no subprocess support")
def test_sweep_retries_worker_failures_in_process():
    cells = [(os.getpid(), v) for v in range(4)]
    sweep = ParallelSweep(worker=_fails_in_child_worker, max_workers=2)
    results = sweep.run(cells)
    assert results == [0, 10, 20, 30]
    assert sweep.last_execution == "pool"
    # every cell failed once in a child and was recovered by a retry
    assert sweep.cell_retries_used == len(cells)
    assert sweep.pool_restarts == 0


def test_sweep_reraises_genuine_worker_exceptions():
    """A worker bug propagates with its original type — it is never
    masked as "no subprocess support" and silently re-run serially."""
    for max_workers in (1, 4):
        sweep = ParallelSweep(worker=_always_fails_worker, max_workers=max_workers)
        with pytest.raises(ValueError, match="cell bomb"):
            sweep.run([(os.getpid(), 1)])
        assert sweep.cell_retries_used == sweep.cell_retries


@pytest.mark.skipif(not _pool_available(), reason="no subprocess support")
def test_sweep_survives_crashed_pool_workers():
    cells = [(os.getpid(), v) for v in range(3)]
    sweep = ParallelSweep(worker=_crashes_child_worker, max_workers=2)
    results = sweep.run(cells)
    assert results == [0, 10, 20]
    # every pool (original + one restart) broke; serial fallback finished
    assert sweep.pool_restarts == sweep.max_pool_restarts == 1
    assert sweep.last_execution == "serial"


def _stalls_in_child_worker(cell):
    """Sleeps only inside pool children; instant on the serial fallback."""
    parent_pid, value = cell
    if os.getpid() != parent_pid:
        import time

        time.sleep(3.0)
    return value * 10


@pytest.mark.skipif(not _pool_available(), reason="no subprocess support")
def test_sweep_bounded_wait_falls_back_serial():
    """An expired pool wait degrades to serial and ticks the counter."""
    from repro.obs.metrics import Metrics

    metrics = Metrics()
    cells = [(os.getpid(), v) for v in range(2)]
    sweep = ParallelSweep(
        worker=_stalls_in_child_worker, max_workers=2, timeout_s=0.2, metrics=metrics
    )
    results = sweep.run(cells)
    assert results == [0, 10]
    assert sweep.last_execution == "serial"
    assert sweep.pool_timeouts == 1
    assert metrics.counter("pq_pool_timeouts_total").value == 1


def test_sweep_timeout_resolution(monkeypatch):
    from repro.engine.parallel import (
        DEFAULT_POOL_TIMEOUT_S,
        POOL_TIMEOUT_ENV,
        default_pool_timeout_s,
    )

    monkeypatch.delenv(POOL_TIMEOUT_ENV, raising=False)
    assert default_pool_timeout_s() == DEFAULT_POOL_TIMEOUT_S
    assert ParallelSweep(max_workers=1).timeout_s == DEFAULT_POOL_TIMEOUT_S
    monkeypatch.setenv(POOL_TIMEOUT_ENV, "2.5")
    assert default_pool_timeout_s() == 2.5
    monkeypatch.setenv(POOL_TIMEOUT_ENV, "0")
    assert default_pool_timeout_s() is None  # <= 0 disables the bound
    monkeypatch.setenv(POOL_TIMEOUT_ENV, "junk")
    assert default_pool_timeout_s() == DEFAULT_POOL_TIMEOUT_S
    assert ParallelSweep(max_workers=1, timeout_s=-1).timeout_s is None
    assert ParallelSweep(max_workers=1, timeout_s=7.0).timeout_s == 7.0


def test_intern_config_returns_shared_instance():
    a = PrintQueueConfig(m0=6, k=10, alpha=2, T=3)
    b = PrintQueueConfig(m0=6, k=10, alpha=2, T=3)
    assert a is not b
    assert intern_config(a) is intern_config(b)


def test_parallel_sweep_interns_cell_configs():
    def worker(cell):
        return cell.config

    cells = [
        SweepCell(
            workload="uw",
            config=PrintQueueConfig(m0=6, k=10, alpha=2, T=3),
            duration_ns=1,
            seed=s,
        )
        for s in (1, 2)
    ]
    assert cells[0].config is not cells[1].config
    sweep = ParallelSweep(worker=worker, max_workers=1)
    results = sweep.run(cells)
    assert results[0] is results[1]
