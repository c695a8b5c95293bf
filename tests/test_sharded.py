"""The multi-port shard driver: bit-identical to in-process runs per port.

``ShardRunner``'s contract extends the engine-equivalence invariant
across process boundaries: partitioning a trace by egress port and
driving each shard's :class:`~repro.core.printqueue.PrintQueuePort`
through a pool worker must leave every port in exactly the state a
single-process pipeline run over the same per-port sub-trace produces —
deterministic reports, query answers, counters, and the PQSTORE1 byte
stream all identical, whether the pool ran or the in-process fallback
took over.
"""

import numpy as np
import pytest

from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueuePort
from repro.core.queries import QueryInterval
from repro.engine import (
    IngestPipeline,
    Shard,
    ShardRunner,
    intern_config,
    partition_trace_by_port,
)
from repro.engine.sharded import INPROCESS_ENV
from repro.experiments.runner import run_trace_through_fifo_batch
from repro.obs.metrics import Metrics
from repro.obs.report import RunReport
from repro.store import MmapStore
from repro.traffic.distributions import distribution_by_name
from repro.traffic.generator import PoissonWorkload, WorkloadConfig

CONFIG = PrintQueueConfig(m0=6, k=10, alpha=2, T=3, qm_levels=4096)


def _trace(seed=3, duration_ns=8_000_000):
    generator = PoissonWorkload(
        distribution_by_name("uw"),
        WorkloadConfig(load=1.2, duration_ns=duration_ns),
        seed=seed,
    )
    return generator.generate()


def _port_for(records, store=None, metrics=None, faults=None):
    if len(records) >= 2:
        span = records[-1].deq_timestamp - records[0].deq_timestamp
        d_ns = span / (len(records) - 1)
    else:
        d_ns = float(CONFIG.min_pkt_tx_delay_ns)
    return PrintQueuePort(
        CONFIG,
        d_ns=d_ns,
        model_dp_read_cost=False,
        metrics=metrics,
        store=store,
        faults=faults,
    )


def _build_shards(trace, num_ports, stores=None):
    shards = []
    for i, sub in enumerate(partition_trace_by_port(trace, num_ports)):
        records, _ = run_trace_through_fifo_batch(sub)
        store = stores[i] if stores is not None else None
        shards.append(Shard(_port_for(records, store=store), records))
    return shards


def _view(pq):
    return RunReport.from_port(pq).deterministic_view()


def _query_answer(pq, records):
    end = records[-1].deq_timestamp
    interval = QueryInterval(max(0, end - CONFIG.set_period_ns), end)
    return sorted(
        (str(flow), count)
        for flow, count in pq.query(interval=interval).estimate.items()
    )


# ---------------------------------------------------------------------------
# trace partitioning


def test_partition_covers_trace_and_respects_ports():
    trace = _trace()
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


def test_partition_single_port_is_whole_trace():
    trace = _trace()
    (sub,) = partition_trace_by_port(trace, 1)
    np.testing.assert_array_equal(sub.arrival_ns, trace.arrival_ns)
    np.testing.assert_array_equal(sub.flow_index, trace.flow_index)


# ---------------------------------------------------------------------------
# execution paths


def test_env_forces_in_process_fallback(monkeypatch):
    monkeypatch.setenv(INPROCESS_ENV, "1")
    trace = _trace(seed=9, duration_ns=3_000_000)
    records, _ = run_trace_through_fifo_batch(trace)
    pq = _port_for(records)
    runner = ShardRunner([Shard(pq, records)])
    runner.run()
    assert runner.last_execution == "in-process"

    reference = _port_for(records)
    IngestPipeline(reference, records).run()
    assert _view(pq) == _view(reference)


def test_baselines_force_in_process():
    from repro.baselines.interval import FixedIntervalEstimator

    class ExactCounter:
        def __init__(self):
            self.counts = {}

        def update(self, flow, count=1):
            self.counts[flow] = self.counts.get(flow, 0) + count

        def flow_counts(self):
            return dict(self.counts)

        def reset(self):
            self.counts = {}

    trace = _trace(seed=9, duration_ns=3_000_000)
    records, _ = run_trace_through_fifo_batch(trace)
    pq = _port_for(records)
    baseline = FixedIntervalEstimator(ExactCounter(), period_ns=1_000_000)
    runner = ShardRunner([Shard(pq, records, baselines=[baseline])])
    runner.run()
    assert runner.last_execution == "in-process"


# ---------------------------------------------------------------------------
# shard-count invariance: 1 shard vs N shards, per-port answers identical


@pytest.mark.parametrize("num_ports", [2, 4])
def test_shard_count_invariance(num_ports):
    trace = _trace(seed=13, duration_ns=8_000_000)
    shards = _build_shards(trace, num_ports)
    runner = ShardRunner(shards)
    runner.run()

    for shard in shards:
        reference = _port_for(shard.records)
        IngestPipeline(reference, shard.records).run()
        assert _view(shard.pq) == _view(reference)
        assert _query_answer(shard.pq, shard.records) == _query_answer(
            reference, shard.records
        )


@pytest.mark.parametrize("num_ports", [2, 4])
def test_shard_store_files_byte_identical(tmp_path, num_ports):
    trace = _trace(seed=13, duration_ns=8_000_000)
    stores = [
        MmapStore(tmp_path / f"sharded-{i}.pqstore") for i in range(num_ports)
    ]
    shards = _build_shards(trace, num_ports, stores=stores)
    ShardRunner(shards).run()
    for store in stores:
        store.close()

    for i, shard in enumerate(shards):
        ref_store = MmapStore(tmp_path / f"local-{i}.pqstore")
        reference = _port_for(shard.records, store=ref_store)
        IngestPipeline(reference, shard.records).run()
        ref_store.close()
        sharded_bytes = (tmp_path / f"sharded-{i}.pqstore").read_bytes()
        local_bytes = (tmp_path / f"local-{i}.pqstore").read_bytes()
        assert sharded_bytes == local_bytes
        assert len(sharded_bytes) > 0


def test_pool_and_in_process_paths_agree(monkeypatch):
    trace = _trace(seed=21, duration_ns=6_000_000)
    pooled = _build_shards(trace, 3)
    pooled_runner = ShardRunner(pooled)
    pooled_runner.run()

    monkeypatch.setenv(INPROCESS_ENV, "1")
    serial = _build_shards(trace, 3)
    serial_runner = ShardRunner(serial)
    serial_runner.run()
    assert serial_runner.last_execution == "in-process"

    for a, b in zip(pooled, serial):
        assert _view(a.pq) == _view(b.pq)
        # One flow table per port, still shared by every bank and the
        # monitor's array registers after the pickle round trip through
        # the worker.
        analysis = a.pq.analysis
        assert all(bank.table is analysis.flow_table for bank in analysis.tw_banks.banks)
        monitor, local = analysis.queue_monitor, b.pq.analysis.queue_monitor
        assert monitor.flow_table is analysis.flow_table
        assert monitor.inc_flow_idx.dtype == np.int32
        assert monitor._seq == local._seq > 0
        for name in ("inc_seq", "dec_seq", "inc_flow_idx"):
            assert np.array_equal(getattr(monitor, name), getattr(local, name))


# ---------------------------------------------------------------------------
# faults x shards: per-shard quarantine/retry survives the pool


def test_fault_profile_under_sharded_engine():
    trace = _trace(seed=11, duration_ns=20_000_000)
    records, _ = run_trace_through_fifo_batch(trace)
    triggers = set(range(0, 20000, 500))
    runs = {}
    for name in ("local", "sharded"):
        metrics = Metrics()
        pq = _port_for(records, metrics=metrics, faults="chaos")
        if name == "local":
            dp_results = IngestPipeline(pq, records, dp_trigger_indices=triggers).run()
        else:
            (dp_results,) = ShardRunner(
                [Shard(pq, records, dp_trigger_indices=triggers)]
            ).run()
        fault_counters = {
            name: value
            for name, value in metrics.snapshot().items()
            if ("fault" in name or "retries" in name) and "_ns" not in name
        }
        runs[name] = (pq, dp_results, fault_counters)

    local_pq, local_dp, local_faults = runs["local"]
    sharded_pq, sharded_dp, sharded_faults = runs["sharded"]
    # The chaos profile must actually fire for this test to mean anything.
    assert any("injected" in name for name in local_faults)
    assert local_faults == sharded_faults
    assert _view(local_pq) == _view(sharded_pq)
    assert local_dp.keys() == sharded_dp.keys()
    for idx, result in local_dp.items():
        assert result.estimate.as_dict() == sharded_dp[idx].estimate.as_dict()


# ---------------------------------------------------------------------------
# config interning (ResultCache key fix)


def test_intern_config_returns_shared_instance():
    a = PrintQueueConfig(m0=6, k=10, alpha=2, T=3)
    b = PrintQueueConfig(m0=6, k=10, alpha=2, T=3)
    assert a is not b
    assert intern_config(a) is intern_config(b)


def test_parallel_sweep_interns_cell_configs():
    from repro.engine import ParallelSweep, SweepCell

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


# ---------------------------------------------------------------------------
# bounded pool waits


def test_pool_timeout_falls_back_in_process(monkeypatch):
    """A PoolTimeoutError from the pool path downgrades to in-process,
    ticks the counter on the parent registry, and still returns correct
    per-shard results."""
    from repro.errors import PoolTimeoutError

    trace = _trace(duration_ns=2_000_000)
    metrics = Metrics()
    shards = _build_shards(trace, 2)
    shards[0].pq.attach_metrics(metrics)

    def _stalled_pool(self):
        raise PoolTimeoutError("shard 0 exceeded its 0.1s pool wait")

    monkeypatch.setattr(ShardRunner, "_run_pool", _stalled_pool)
    runner = ShardRunner(shards, timeout_s=0.1)
    assert runner.timeout_s == 0.1
    results = runner.run()
    assert len(results) == 2 and all(isinstance(r, dict) for r in results)
    assert runner.last_execution == "in-process"
    assert runner.pool_timeouts == 1
    assert metrics.counter("pq_pool_timeouts_total").value == 1


def test_shard_runner_timeout_resolution(monkeypatch):
    from repro.engine.parallel import DEFAULT_POOL_TIMEOUT_S, POOL_TIMEOUT_ENV

    monkeypatch.delenv(POOL_TIMEOUT_ENV, raising=False)
    assert ShardRunner([]).timeout_s == DEFAULT_POOL_TIMEOUT_S
    monkeypatch.setenv(POOL_TIMEOUT_ENV, "1.5")
    assert ShardRunner([]).timeout_s == 1.5
    assert ShardRunner([], timeout_s=-2).timeout_s is None
