"""The production ingest path against the scalar oracle: one differential suite.

There is one per-packet procedure (Algorithm 1) with two entry points on
the same array registers — ``TimeWindowSet.update`` (the oracle) and
``TimeWindowSet.absorb_indexed`` (the kernel) — and one replay driver for
each (``engine="scalar"`` / ``engine="fused"``).  DESIGN.md §14's
contract is that they agree on *everything observable*: register banks,
per-level counters, the snapshot bytes a store persists, the
deterministic report view, data-plane trigger results and single/batch
query answers — for any trace, any configuration, any way the log is cut
into batches, under any fault profile, on any store backend.

:func:`assert_matches_oracle` is that contract as one checker.  Hypothesis
draws its inputs; the pinned cases below it are regression anchors
(collision-heavy registers, long traces, the PQSTORE1 file bytes) fed to
the same checker.  The carrier tests at the bottom cover
``RecordBatch`` / ``FlowColumn`` / ``FlowTable`` on their own.
"""

import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueuePort
from repro.core.queries import QueryInterval
from repro.core.windowset import TimeWindowSet
from repro.errors import SimulationError
from repro.experiments.runner import (
    drive_printqueue,
    measured_d_ns,
    query_time_windows_scalar,
    run_trace_through_fifo,
    simulate_workload,
)
from repro.faults import profile_names
from repro.obs.metrics import Metrics
from repro.obs.report import RunReport
from repro.store import MmapStore
from repro.store import format as storefmt
from repro.switch.fastpath import fifo_record_batch
from repro.switch.packet import FlowKey
from repro.switch.records import (
    PACKET_RECORD_DTYPE,
    FlowColumn,
    FlowTable,
    RecordBatch,
    as_record_batch,
)
from repro.traffic.distributions import distribution_by_name
from repro.traffic.generator import PoissonWorkload, WorkloadConfig
from repro.traffic.trace import Trace

# ---------------------------------------------------------------------------
# state signatures — flows resolved through the port's table, so two ports
# that interned the same flows in a different order still compare equal


def _window_cells(w):
    cells = map(w.cell, range(len(w)))
    return [None if r is None else (r.cycle_id, r.flow) for r in cells]


def _monitor_flows(flow_idx, table):
    return tuple(None if i < 0 else table[i] for i in flow_idx.tolist())


def _windowset_state(ws):
    return (
        [_window_cells(w) for w in ws.windows],
        (ws.updates, ws.passes, ws.drops),
        tuple(ws.level_inserts),
        tuple(ws.level_passes),
        tuple(ws.level_drops),
    )


def _port_state(pq):
    analysis = pq.analysis
    banks = analysis.tw_banks
    qm = analysis.queue_monitor
    return (
        pq.packets_seen,
        banks.active_index,
        banks.periodic_flips,
        banks.dp_freezes,
        banks.dp_rejections,
        [_windowset_state(bank) for bank in banks.banks],
        (qm.top, qm._seq, qm.overflows, qm.pushes, qm.drains, qm.high_water),
        (
            tuple(qm.inc_seq.tolist()),
            _monitor_flows(qm.inc_flow_idx, qm.flow_table.flows),
            tuple(qm.dec_seq.tolist()),
        ),
        [
            (s.read_time_ns, s.source, s.valid_from_ns, list(s.windows))
            for s in analysis.tw_snapshots
        ],
        [
            (
                s.time_ns,
                s.top,
                tuple(s.inc_seq.tolist()),
                _monitor_flows(s.inc_flow_idx, s.flow_table),
                tuple(s.dec_seq.tolist()),
            )
            for s in analysis.qm_snapshots
        ],
    )


def _snapshot_bytes(pq):
    analysis = pq.analysis
    return (
        [storefmt.encode_tw(s) for s in analysis.tw_snapshots],
        [storefmt.encode_qm(s, True) for s in analysis.qm_snapshots],
    )


def _flow(i: int) -> FlowKey:
    return FlowKey.from_strings(
        f"10.0.{(i >> 8) & 255}.{i & 255}", "10.1.0.1", 5000 + i % 37, 80
    )


# ---------------------------------------------------------------------------
# the differential checker


def _drive_cut(records, config, engines, cuts, triggers, faults, store):
    """One port fed ``records`` in segments, segment ``i`` by ``engines[i]``."""
    pq = PrintQueuePort(
        config,
        d_ns=measured_d_ns(records, config),
        model_dp_read_cost=False,
        faults=faults,
        store=store,
    )
    dp_results = {}
    bounds = [0, *cuts, len(records)]
    for engine, lo, hi in zip(engines, bounds, bounds[1:]):
        local = {t - lo for t in triggers if lo <= t < hi}
        done = drive_printqueue(records[lo:hi], pq, local, engine=engine)
        dp_results.update({lo + i: r for i, r in done.items()})
    return pq, dp_results


def assert_matches_oracle(
    batch, config, *, engines=None, cuts=(), triggers=(), faults=None, mmap=False
):
    """Drive ``batch`` through the oracle and through ``engines``; compare all.

    ``cuts`` are record positions where the log is split into consecutive
    drives on the same port (each ends with the operator flush, on both
    sides); ``engines`` names the engine per segment (default: production
    throughout), so a mixed list is a port that took scalar events and
    then a batch.  Returns ``(oracle_port, port)``.
    """
    cuts = sorted(set(cuts))
    if engines is None:
        engines = ["fused"] * (len(cuts) + 1)
    objects = batch.to_records()
    files = []
    ports = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, log, plan in (
            ("oracle", objects, ["scalar"] * len(engines)),
            ("subject", batch, engines),
        ):
            store = MmapStore(Path(tmp) / f"{name}.pqstore") if mmap else None
            ports.append(
                _drive_cut(log, config, plan, cuts, set(triggers), faults, store)
            )
            if store is not None:
                store.close()
                files.append((Path(tmp) / f"{name}.pqstore").read_bytes())
    (oracle, oracle_dp), (subject, subject_dp) = ports

    assert _port_state(subject) == _port_state(oracle)
    assert _snapshot_bytes(subject) == _snapshot_bytes(oracle)
    if mmap:
        assert files[0] == files[1] and len(files[0]) > 0
    assert (
        RunReport.from_port(subject).deterministic_view()
        == RunReport.from_port(oracle).deterministic_view()
    )
    if faults is not None:
        assert subject.faults.injected == oracle.faults.injected
        assert subject.poller.log.to_dict() == oracle.poller.log.to_dict()

    assert subject_dp.keys() == oracle_dp.keys()
    for idx, result in oracle_dp.items():
        other = subject_dp[idx]
        assert result.trigger_time_ns == other.trigger_time_ns
        assert result.interval == other.interval
        assert list(result.estimate.items()) == list(other.estimate.items())
        spec = query_time_windows_scalar(
            oracle.analysis, result.interval, snapshots=[result.snapshot]
        )
        assert list(result.estimate.items()) == list(spec.items())

    victims = sorted(objects, key=lambda r: r.queuing_delay)[-3:]
    intervals = [
        QueryInterval.for_victim(v.enq_timestamp, v.deq_timestamp) for v in victims
    ]
    answers = []
    for pq in (oracle, subject):
        singles = [pq.query(interval=iv) for iv in intervals]
        batched = pq.query(intervals=intervals)
        assert [list(r.estimate.items()) for r in singles] == [
            list(e.items()) for e in batched.estimates
        ]
        if pq is oracle:
            assert [list(r.estimate.items()) for r in singles] == [
                list(query_time_windows_scalar(pq.analysis, iv).items())
                for iv in intervals
            ]
        standing = pq.query(at_ns=victims[-1].enq_timestamp)
        answers.append(
            (
                [list(r.estimate.items()) for r in singles],
                [(r.degraded, r.coverage) for r in singles],
                list(standing.estimate.items()),
                (standing.degraded, standing.coverage),
            )
        )
    assert answers[0] == answers[1]
    return oracle, subject


# ---------------------------------------------------------------------------
# hypothesis-drawn inputs

_packets = st.lists(
    st.tuples(
        st.integers(0, 1000),  # inter-arrival gap, ns (1500 B drains in 1200)
        st.sampled_from([64, 256, 1500]),
        st.integers(0, 11),  # flow
    ),
    min_size=120,  # long enough to cross polls and revisit cells
    max_size=400,
)

_configs = st.builds(
    PrintQueueConfig,
    m0=st.integers(5, 8),
    k=st.integers(3, 7),
    alpha=st.integers(1, 2),
    T=st.integers(1, 4),
    qm_levels=st.sampled_from([16, 256]),
)


def _batch_from(packets):
    gaps, sizes, flow_ids = (np.array(c, dtype=np.int64) for c in zip(*packets))
    trace = Trace(
        arrival_ns=np.cumsum(gaps),
        size_bytes=sizes,
        flow_index=flow_ids,
        flows=[_flow(i) for i in range(12)],
    )
    batch, _ = fifo_record_batch(trace)
    return batch


@settings(max_examples=60, deadline=None)
@given(
    packets=_packets,
    config=_configs,
    plan=st.lists(
        st.tuples(st.floats(0, 1), st.sampled_from(["scalar", "fused"])), max_size=3
    ),
    last_engine=st.sampled_from(["scalar", "fused"]),
    trigger_fracs=st.lists(st.floats(0, 1), max_size=3),
    faults=st.sampled_from([None, *profile_names()]),
    mmap=st.booleans(),
)
def test_any_engine_schedule_matches_scalar_oracle(
    packets, config, plan, last_engine, trigger_fracs, faults, mmap
):
    """trace x config x batch cuts x fault profile x store, any engine per
    segment — all-production and scalar-then-batch included."""
    batch = _batch_from(packets)
    n = len(batch)
    cut_at = {}
    for frac, engine in plan:
        position = int(frac * n)
        if 0 < position < n:
            cut_at[position] = engine
    cuts = sorted(cut_at)
    engines = [cut_at[c] for c in cuts] + [last_engine]
    assert_matches_oracle(
        batch,
        config,
        engines=engines,
        cuts=cuts,
        triggers={min(n - 1, int(f * n)) for f in trigger_fracs},
        faults=faults,
        mmap=mmap,
    )


def assert_kernel_matches_specification(config, flow_ids, timestamps, bounds):
    """``absorb_indexed`` over ``bounds``-delimited chunks == ``update`` per
    packet: registers, counters and per-level counters."""
    table = [_flow(i) for i in range(int(flow_ids.max()) + 1)]
    oracle = TimeWindowSet(config)
    for fid, ts in zip(flow_ids.tolist(), timestamps.tolist()):
        oracle.update(table[fid], ts)
    kernel = TimeWindowSet(config)
    assert kernel.table.remap(table) is None  # fresh table: adopted as is
    for lo, hi in zip(bounds, bounds[1:]):
        kernel.absorb_indexed(flow_ids[lo:hi], timestamps[lo:hi])
    assert _windowset_state(kernel) == _windowset_state(oracle)


@settings(max_examples=60, deadline=None)
@given(
    stamps=st.lists(
        st.tuples(st.integers(0, 200), st.integers(0, 15)), min_size=1, max_size=400
    ),
    cut_fracs=st.lists(st.floats(0, 1), max_size=4),
    m0=st.integers(0, 5),
    k=st.integers(1, 6),
    alpha=st.integers(1, 3),
    T=st.integers(1, 4),
)
def test_kernel_matches_per_packet_specification(stamps, cut_fracs, m0, k, alpha, T):
    """Clustered timestamps, so same-cell and adjacent-cycle hits dominate;
    arbitrary chunking, so cross-batch cell state is exercised."""
    gaps, flow_ids = (np.array(c, dtype=np.int64) for c in zip(*stamps))
    n = len(gaps)
    assert_kernel_matches_specification(
        PrintQueueConfig(m0=m0, k=k, alpha=alpha, T=T),
        flow_ids,
        np.cumsum(gaps),
        sorted({0, n, *(int(f * n) for f in cut_fracs)}),
    )


@pytest.mark.parametrize("k,alpha,T", [(4, 1, 3), (6, 2, 4), (8, 1, 2)])
def test_fused_absorb_matches_scalar_randomized(k, alpha, T):
    config = PrintQueueConfig(m0=4, k=k, alpha=alpha, T=T)
    rng = np.random.default_rng(k * 100 + alpha * 10 + T)
    gaps = rng.integers(1, 1 << (config.m0 + 2), size=600)
    assert_kernel_matches_specification(
        config,
        rng.integers(0, 40, size=600),
        np.cumsum(gaps).astype(np.int64),
        [0, 1, 7, 250, 600],  # uneven chunks
    )


# ---------------------------------------------------------------------------
# pinned inputs to the same checker


def _ws_batch(seed, duration_ns, load=1.3):
    workload = PoissonWorkload(
        distribution_by_name("ws"),
        WorkloadConfig(load=load, duration_ns=duration_ns),
        seed=seed,
    )
    return workload.generate_records()[1]


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_fused_matches_scalar_end_to_end(seed):
    config = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)
    batch = _ws_batch(seed, 2_000_000)
    assert len(batch) > 100
    assert_matches_oracle(batch, config, triggers={5, 60, 200})


def test_fused_matches_scalar_collision_heavy():
    # 16-cell windows: nearly every insert collides, so the pass stream
    # (head + mid evictions, recompressed TTS, passes ordered by evictor)
    # is fully exercised: alpha 1 and 2, records passed into all four
    # windows of T = 4, and (m0 = 12: 4096 ns per TTS against 1200 ns per
    # 1500 B packet) runs of dequeues sharing one TTS.
    batch = _ws_batch(3, 400_000)
    tts = batch.deq_timestamp >> 12
    assert np.count_nonzero(tts[1:] == tts[:-1]) > len(batch) // 2
    for m0, alpha, T in ((10, 1, 3), (10, 2, 4), (12, 2, 4)):
        config = PrintQueueConfig(m0=m0, k=4, alpha=alpha, T=T, qm_levels=256)
        _, fused = assert_matches_oracle(batch, config)
        banks = fused.analysis.tw_banks.banks
        passes = [sum(b.level_passes[i] for b in banks) for i in range(T)]
        assert passes[0] > 0 and passes[1] > 0, (m0, alpha, T)
        if (m0, T) == (10, 4):
            assert passes[2] > 0  # the last window takes inserts


def test_store_encoding_is_engine_independent():
    """The PQSTORE1 file a run leaves behind is byte-identical."""
    config = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)
    assert_matches_oracle(_ws_batch(11, 2_000_000), config, mmap=True)


def test_scalar_events_then_a_batch_on_one_port():
    """A port that already holds traffic takes a batch: its flows are
    interned into the port's table (this used to be a SimulationError)."""
    config = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)
    batch = _ws_batch(7, 1_500_000)
    _, mixed = assert_matches_oracle(
        batch, config, engines=["scalar", "fused"], cuts=[len(batch) // 3]
    )
    flows = mixed.analysis.flow_table.flows
    assert len(set(flows)) == len(flows)  # no flow interned twice


def test_fused_metrics_on_equals_metrics_off():
    config = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)
    plain = simulate_workload("ws", 2_000_000, load=1.3, config=config, seed=13)
    metered = simulate_workload(
        "ws", 2_000_000, load=1.3, config=config, seed=13, metrics=Metrics()
    )
    assert _port_state(plain.pq) == _port_state(metered.pq)


# ---------------------------------------------------------------------------
# one flow table per port


def test_banks_share_one_flow_index():
    """Alternating banks must not append the same flow twice (each bank
    used to build its own index over the shared table)."""
    table = FlowTable()
    config = PrintQueueConfig(m0=2, k=4, alpha=1, T=2, qm_levels=16)
    a, b = TimeWindowSet(config, table), TimeWindowSet(config, table)
    a.update(_flow(1), 100)
    b.update(_flow(2), 200)
    a.update(_flow(2), 300)
    assert table.flows == [_flow(1), _flow(2)]

    pq = PrintQueuePort(config, model_dp_read_cost=False)
    for i in range(200):  # crosses many polls, so every bank takes writes
        pq.process_dequeue(_flow(i % 5), 40 * i, 0)
    assert len(pq.analysis.flow_table) == 5
    clone = pickle.loads(pickle.dumps(pq))
    tables = {id(bank.table) for bank in clone.analysis.tw_banks.banks}
    tables.add(id(clone.analysis.queue_monitor.flow_table))
    assert tables == {id(clone.analysis.flow_table)}
    clone.process_dequeue(_flow(3), 9000, 0)
    assert len(clone.analysis.flow_table) == 5


def test_flow_table_remap():
    table = FlowTable()
    assert table.remap([_flow(0), _flow(1)]) is None  # empty: adopts
    assert table.flows == [_flow(0), _flow(1)]
    assert table.remap([_flow(1), _flow(7), _flow(0)]).tolist() == [1, 2, 0]
    assert table.intern(_flow(7)) == 2 and len(table) == 3


def test_absorb_indexed_length_mismatch_raises():
    ws = TimeWindowSet(PrintQueueConfig(m0=2, k=4, alpha=1, T=1))
    with pytest.raises(SimulationError):
        ws.absorb_indexed(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))
    assert ws.absorb_indexed(np.zeros(0, dtype=np.int64), np.zeros(0)) == 0
    assert ws.updates == 0


def test_foreign_flow_column_is_rejected():
    # Either column — the per-event one the monitor reads or the
    # dequeue-side one the time windows read — must index the port's table.
    pq = PrintQueuePort(PrintQueueConfig(m0=2, k=4, alpha=1, T=1))
    idx = np.zeros(1, dtype=np.int64)
    own = FlowColumn(pq.analysis.flow_table.flows, idx)
    foreign = FlowColumn([_flow(0)], idx)
    with pytest.raises(SimulationError):
        pq.write_back_batch(np.array([False]), foreign, np.array([0]))
    with pytest.raises(SimulationError):
        pq.absorb_batch(foreign, np.array([10]))
    assert pq.packets_seen == 0 and pq.analysis.queue_monitor.drains == 0
    assert pq.analysis.tw_banks.active.updates == 0


# ---------------------------------------------------------------------------
# RecordBatch / FlowColumn carriers


def _small_batch():
    workload = PoissonWorkload(
        distribution_by_name("ws"),
        WorkloadConfig(load=1.2, duration_ns=500_000),
        seed=5,
    )
    trace = workload.generate()
    records, drops = run_trace_through_fifo(trace)
    batch, drops2 = fifo_record_batch(trace)
    assert drops == drops2
    return records, batch


def test_record_batch_matches_object_records():
    records, batch = _small_batch()
    assert len(batch) == len(records)
    assert batch.data.dtype == PACKET_RECORD_DTYPE
    assert batch.to_records() == records
    assert list(batch) == records
    assert batch[0] == records[0]
    assert batch[-1] == records[-1]
    sliced = batch[10:20]
    assert isinstance(sliced, RecordBatch)
    assert sliced.to_records() == records[10:20]


def test_record_batch_round_trip_through_objects():
    records, direct = _small_batch()
    batch = RecordBatch.from_records(records)
    assert batch.to_records() == records
    assert as_record_batch(batch) is batch
    # Column-wise interning: first-seen flow order, the FIFO's columns.
    seen = list(dict.fromkeys(r.flow for r in records))
    assert batch.flows == seen
    for column in ("enq_ts", "deq_ts", "enq_qdepth", "size", "priority"):
        assert np.array_equal(batch.data[column], direct.data[column])
    assert [batch.flows[i] for i in batch.data["flow"]] == [r.flow for r in records]


def test_record_batch_rejects_wrong_dtype():
    with pytest.raises(ValueError):
        RecordBatch(np.zeros(3, dtype=np.int64), [])


def test_flow_column_narrowing_and_iteration():
    table = [_flow(i) for i in range(4)]
    idx = np.array([0, 3, 1, 3, 2], dtype=np.int64)
    col = FlowColumn(table, idx)
    assert len(col) == 5
    assert col[1] is table[3]
    assert list(col) == [table[0], table[3], table[1], table[3], table[2]]
    narrowed = col[np.array([1, 3])]
    assert isinstance(narrowed, FlowColumn)
    assert narrowed.table is table
    assert list(narrowed) == [table[3], table[3]]
    assert list(col[1:3]) == [table[3], table[1]]


def test_generate_records_matches_generate():
    workload = PoissonWorkload(
        distribution_by_name("ws"),
        WorkloadConfig(load=1.2, duration_ns=400_000),
        seed=9,
    )
    trace, batch, drops = workload.generate_records()
    records, drops2 = run_trace_through_fifo(trace)
    assert drops == drops2
    assert batch.to_records() == records


# ---------------------------------------------------------------------------
# store bridge: zero-copy replay


def test_mmap_replay_compiles_and_queries_zero_copy(tmp_path):
    config = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)
    path = tmp_path / "run.pqstore"

    def run(**kw):
        return simulate_workload(
            "ws", 2_000_000, load=1.3, config=config, seed=11, **kw
        )

    # Reference run against the in-memory store (identical poll stream).
    live = run()
    live_snapshots = list(live.pq.analysis.tw_snapshots)
    victim = max(live.records, key=lambda r: r.queuing_delay)
    interval = QueryInterval.for_victim(victim.enq_timestamp, victim.deq_timestamp)
    live_estimate = live.pq.query(interval=interval).estimate._counts
    # Recording run: same workload, snapshots land in the PQSTORE1 file.
    recording = run(store=MmapStore(path))
    recording.pq.analysis.store.close()

    replay = MmapStore.open(path)
    snapshots = list(replay.tw_view())
    assert len(snapshots) == len(live_snapshots)
    for stored, original in zip(snapshots, live_snapshots):
        # Equality is on the materialised cells, independent of carrier.
        assert list(stored.windows) == list(original.windows)
    # The decoded windows are index-based views straight off the mmap:
    # no per-cell objects were built to satisfy the equality above having
    # been the only materialisation, and the arrays do not own memory.
    fw = next(w for s in snapshots for w in s.windows if w.cell_count)
    assert fw.flow_idx is not None
    assert fw.flow_table is not None
    assert not fw.tts_array.flags.owndata
    assert not fw.flow_idx.flags.owndata

    # An analysis program rebound to the replayed store answers queries
    # identically to the live run.
    from repro.core.analysis import AnalysisProgram

    analysis = AnalysisProgram(
        config,
        d_ns=measured_d_ns(live.records, config),
        model_dp_read_cost=False,
        store=replay,
    )
    estimate = analysis.query_time_windows(interval)._counts
    assert estimate == live_estimate
