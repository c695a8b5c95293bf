"""The columnar batch query engine: exact equivalence + cache behaviour.

The compiled plan is only allowed to be *faster* than the scalar
reference walk — every test here asserts exact equality of the resulting
``FlowEstimate`` contents (same flows, bit-identical floats), not
approximate closeness, with fractional cells both on and off.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BatchQueryResult, QueryError, QueryInterval, QueryResult
from repro.core.analysis import AnalysisProgram, TimeWindowSnapshot, newest_first
from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueuePort
from repro.core.queries import FlowEstimate
from repro.engine import queryplan
from repro.engine.queryplan import (
    CompiledQueryPlan,
    PlanBuildStats,
    compile_snapshot,
)
from repro.experiments.runner import (
    _accumulate_snapshot_scalar,
    query_time_windows_scalar,
    simulate_workload,
)
from repro.faults import FaultPlan
from repro.store import MmapStore, replay_analysis
from repro.switch.packet import FlowKey

from tests.test_faults import CFG as FAULT_CFG
from tests.test_faults import _drive as drive_faulted
from tests.windows import make_windows

CONFIG = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)

FLOWS = [
    FlowKey.from_strings("10.0.0.%d" % (i + 1), "10.1.0.1", 5000 + i, 80)
    for i in range(6)
]


@pytest.fixture(scope="module")
def run():
    return simulate_workload(
        "ws", duration_ns=1_500_000, load=1.3, config=CONFIG, seed=21
    )


@pytest.fixture(scope="module")
def victim_intervals(run):
    victims = sorted(run.records, key=lambda r: r.queuing_delay, reverse=True)
    return [
        QueryInterval.for_victim(v.enq_timestamp, v.deq_timestamp)
        for v in victims[:40]
    ]


def scalar_estimates(analysis, intervals):
    return [query_time_windows_scalar(analysis, iv) for iv in intervals]


# ---------------------------------------------------------------------------
# exact equivalence, fractional cells on and off


@pytest.mark.parametrize("fractional", [False, True])
def test_batch_matches_scalar_exactly(run, victim_intervals, fractional):
    analysis = run.pq.analysis
    old = analysis.fractional_cells
    analysis.fractional_cells = fractional
    try:
        scalar = scalar_estimates(analysis, victim_intervals)
        batch = analysis.query_time_windows_batch(victim_intervals)
        assert len(batch) == len(scalar)
        for i, (s, b) in enumerate(zip(scalar, batch)):
            # Bit-identical floats AND identical dict iteration order
            # (first-touch), so downstream in-order reductions agree too.
            assert list(s.items()) == list(b.items()), f"victim {i} diverged"
    finally:
        analysis.fractional_cells = old


def test_explicit_snapshots_batch_matches_scalar(run, victim_intervals):
    analysis = run.pq.analysis
    subset = analysis.tw_snapshots[: max(1, len(analysis.tw_snapshots) // 2)]
    scalar = [
        query_time_windows_scalar(analysis, iv, snapshots=subset)
        for iv in victim_intervals[:10]
    ]
    batch = analysis.query_time_windows_batch(
        victim_intervals[:10], snapshots=subset
    )
    for s, b in zip(scalar, batch):
        assert s.as_dict() == b.as_dict()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_intervals_match_scalar(data):
    """Property: any interval batch over any small stream matches scalar."""
    config = PrintQueueConfig(m0=2, k=5, alpha=1, T=3)
    analysis = AnalysisProgram(config, d_ns=6.0)
    n = data.draw(st.integers(20, 200))
    gaps = data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    flow_ids = data.draw(
        st.lists(st.integers(0, len(FLOWS) - 1), min_size=n, max_size=n)
    )
    times = np.cumsum(gaps).tolist()
    for t, f in zip(times, flow_ids):
        analysis.on_dequeue(FLOWS[f], t)
    end = times[-1] + 1
    analysis.periodic_poll(end)
    num = data.draw(st.integers(1, 8))
    intervals = []
    for _ in range(num):
        a = data.draw(st.integers(0, end - 1))
        b = data.draw(st.integers(a + 1, end + 50))
        intervals.append(QueryInterval(a, b))
    analysis.fractional_cells = data.draw(st.booleans())
    scalar = scalar_estimates(analysis, intervals)
    batch = analysis.query_time_windows_batch(intervals)
    for s, b in zip(scalar, batch):
        assert s.as_dict() == b.as_dict()


# ---------------------------------------------------------------------------
# the port-level batch API


def test_port_batch_query_round_trip(run, victim_intervals):
    intervals = victim_intervals[:7]
    result = run.pq.query(intervals=intervals)
    assert isinstance(result, BatchQueryResult)
    assert result.kind == "time_windows" and result.mode == "async"
    assert len(result) == 7
    assert result.intervals == list(intervals)
    # Indexing yields per-victim QueryResults aligned with the input.
    third = result[2]
    assert isinstance(third, QueryResult)
    assert third.interval == intervals[2]
    assert third.estimate is result.estimates[2]
    # Iteration and results() agree with indexing.
    assert [r.interval for r in result] == list(intervals)
    assert len(list(result.results())) == 7
    # Position-aligned with the scalar path.
    for iv, est in zip(intervals, result.estimates):
        assert run.pq.query(interval=iv).estimate.as_dict() == est.as_dict()


def test_port_batch_query_empty(run):
    result = run.pq.query(intervals=[])
    assert isinstance(result, BatchQueryResult)
    assert len(result) == 0 and list(result) == []


def test_port_batch_query_validation(run, victim_intervals):
    iv = victim_intervals[0]
    with pytest.raises(QueryError, match="not both"):
        run.pq.query(interval=iv, intervals=[iv])
    with pytest.raises(QueryError, match="async"):
        run.pq.query(intervals=[iv], mode="data_plane")
    with pytest.raises(QueryError, match="at_ns"):
        run.pq.query(intervals=[iv], at_ns=5)
    with pytest.raises(QueryError):
        run.pq.query(intervals=[iv], classes=[0])


def test_batch_query_without_snapshots_raises():
    analysis = AnalysisProgram(CONFIG, d_ns=1200.0)
    with pytest.raises(QueryError, match="poller"):
        analysis.query_time_windows_batch([QueryInterval(0, 100)])
    with pytest.raises(QueryError, match="poller"):
        analysis.query_time_windows_batch([QueryInterval(0, 100)], snapshots=[])


# ---------------------------------------------------------------------------
# plan cache lifecycle: hit on repeat, miss after poll / dp read


def fresh_analysis(model_dp_read_cost=False):
    analysis = AnalysisProgram(
        CONFIG, d_ns=100.0, model_dp_read_cost=model_dp_read_cost
    )
    t = 0
    for i in range(4000):
        analysis.on_dequeue(FLOWS[i % len(FLOWS)], t)
        t += 100
    analysis.periodic_poll(t)
    return analysis, t


def test_plan_cache_hit_on_repeated_queries():
    analysis, t = fresh_analysis()
    iv = [QueryInterval(t // 4, t // 2)]
    analysis.query_time_windows_batch(iv)
    misses = analysis.plan_cache_misses
    hits = analysis.plan_cache_hits
    analysis.query_time_windows_batch(iv)
    analysis.query_time_windows_batch(iv)
    assert analysis.plan_cache_misses == misses
    assert analysis.plan_cache_hits == hits + 2


def test_plan_cache_invalidated_by_periodic_poll():
    analysis, t = fresh_analysis()
    iv = [QueryInterval(t // 4, t // 2)]
    analysis.query_time_windows_batch(iv)
    misses = analysis.plan_cache_misses
    compile_misses = analysis.snapshot_compile_misses
    # A new poll stores a snapshot (and flips banks): the plan must
    # rebuild, but only the snapshot it has not seen compiles fresh.
    analysis.on_dequeue(FLOWS[0], t)
    analysis.periodic_poll(t + 100)
    analysis.query_time_windows_batch(iv)
    assert analysis.plan_cache_misses == misses + 1
    assert analysis.snapshot_compile_misses == compile_misses + 1
    assert analysis.snapshot_compile_hits > 0


def test_plan_cache_invalidated_by_dp_read():
    # With the read-cost model on, an on-demand read stores its snapshot.
    analysis, t = fresh_analysis(model_dp_read_cost=True)
    for i in range(50):
        analysis.on_dequeue(FLOWS[i % len(FLOWS)], t + 100 * i)
    late = t + 5_000
    iv = [QueryInterval(t // 4, t // 2), QueryInterval(t, late)]
    before = items(analysis.query_time_windows_batch(iv))
    misses = analysis.plan_cache_misses
    version = analysis.store.version
    snapshot = analysis.dp_read(late)
    assert snapshot is not None and analysis.store.version > version
    # The store changed, so the version-keyed cache rebuilds; the plan
    # still covers only the periodic snapshots, so its answers do not
    # move, though the data-plane snapshot alone answers the late victim.
    assert items(analysis.query_time_windows_batch(iv)) == before
    assert analysis.plan_cache_misses == misses + 1
    assert len(query_time_windows_scalar(analysis, iv[1], snapshots=[snapshot]))


def test_snapshot_compilation_is_memoised():
    analysis, t = fresh_analysis()
    snapshot = analysis.tw_snapshots[-1]
    stats = PlanBuildStats()
    first = compile_snapshot(
        snapshot, CONFIG.k, analysis.coefficients, stats=stats
    )
    second = compile_snapshot(
        snapshot, CONFIG.k, analysis.coefficients, stats=stats
    )
    assert second is first
    assert stats.snapshot_misses == 1 and stats.snapshot_hits == 1
    # A different compilation key recompiles rather than serving stale.
    uncoeff = compile_snapshot(
        snapshot, CONFIG.k, analysis.coefficients, apply_coefficients=False
    )
    assert uncoeff is not first


def test_one_table_plan_adopts_the_port_indices(run):
    """Every memory-tier snapshot indexes the port's one flow table, so
    the plan takes that table as its own and the windows' index columns
    as they are: no translation is built."""
    analysis = run.pq.analysis
    plan = analysis.compiled_plan()
    assert plan.flows == analysis.flow_table.flows
    stored = {
        id(fw.flow_idx)
        for snapshot in analysis.tw_snapshots
        for fw in snapshot.windows
    }
    assert plan._windows and all(id(w.flow_idx) in stored for w in plan._windows)


def test_batch_counters_flow_into_report():
    analysis, t = fresh_analysis()
    iv = [QueryInterval(t // 4, t // 2), QueryInterval(t // 2, t - 1)]
    analysis.query_time_windows_batch(iv)
    analysis.query_time_windows_batch(iv)
    assert analysis.batch_queries == 2
    assert analysis.queries_executed >= 4


# ---------------------------------------------------------------------------
# the ordering satellites


def test_store_keeps_snapshots_in_read_time_order(run):
    times = [s.read_time_ns for s in run.pq.analysis.tw_snapshots]
    assert times == sorted(times)


def test_newest_first_presorted_matches_stable_sort():
    class Snap:
        def __init__(self, read_time_ns, tag):
            self.read_time_ns = read_time_ns
            self.tag = tag

    # Equal read times: the stable sort keeps insertion order within a
    # tie group; the presorted walk must reproduce that exactly.
    snaps = [Snap(t, i) for i, t in enumerate([1, 5, 5, 5, 9, 9, 12])]
    reference = sorted(snaps, key=lambda s: s.read_time_ns, reverse=True)
    walked = list(newest_first(snaps, presorted=True))
    assert [(s.read_time_ns, s.tag) for s in walked] == [
        (s.read_time_ns, s.tag) for s in reference
    ]


def test_top_ties_break_on_numeric_flow_key():
    # String order would put 10.0.0.10 before 10.0.0.2; numeric order
    # must not.
    low = FlowKey.from_strings("10.0.0.2", "10.1.0.1", 5000, 80)
    high = FlowKey.from_strings("10.0.0.10", "10.1.0.1", 5000, 80)
    est = FlowEstimate({high: 3.0, low: 3.0})
    assert est.top(2) == [(low, 3.0), (high, 3.0)]
    assert low.sort_key() < high.sort_key()


# ---------------------------------------------------------------------------
# the columnar kernel against the scalar specification: contents AND
# iteration order, fractional cells on and off, single and batch entry

SMALL = PrintQueueConfig(m0=2, k=5, alpha=1, T=3)  # windows span 128/256/512 ns


def polled_analysis(seed, polls, packets=(0, 120), gap=(1, 40), idle=(1, 300)):
    """An analysis with ``polls`` periodic snapshots of a random stream.

    Long polls (many packets, wide gaps) outrun the ~900 ns the three
    windows cover and leave holes between snapshots; short ones make
    ``valid_from_ns`` clamp the coverage instead.
    """
    rng = random.Random(seed)
    analysis = AnalysisProgram(SMALL, d_ns=6.0)
    t = 0
    for _ in range(polls):
        for _ in range(rng.randint(*packets)):
            t += rng.randint(*gap)
            analysis.on_dequeue(FLOWS[rng.randrange(len(FLOWS))], t)
        t += rng.randint(*idle)
        analysis.periodic_poll(t)
    return analysis, t


def random_intervals(rng, end, count):
    out = []
    for _ in range(count):
        a = rng.randrange(0, end)
        out.append(QueryInterval(a, rng.randrange(a + 1, end + 200)))
    return out


def items(estimates):
    return [list(e.items()) for e in estimates]


def assert_plan_is_oracle(analysis, intervals, snapshots=None):
    """Batch entry, single entry and the scalar walk agree exactly."""
    old = analysis.fractional_cells
    try:
        for fractional in (False, True):
            analysis.fractional_cells = fractional
            oracle = items(
                query_time_windows_scalar(analysis, iv, snapshots=snapshots)
                for iv in intervals
            )
            batch = analysis.query_time_windows_batch(intervals, snapshots=snapshots)
            assert items(batch) == oracle
            if snapshots is None:
                plan = analysis.compiled_plan()
            else:
                plan = CompiledQueryPlan.build(
                    list(newest_first(snapshots)),
                    analysis.config.k,
                    analysis.coefficients,
                    analysis.apply_coefficients,
                )
            assert items(plan.query(iv, fractional) for iv in intervals) == oracle
    finally:
        analysis.fractional_cells = old


def most_leftover_pieces(analysis, interval, snapshots):
    """The most uncovered pieces the scalar walk carries between snapshots."""
    pieces = [(interval.start_ns, interval.end_ns)]
    most = 1
    for snapshot in newest_first(snapshots):
        pieces = _accumulate_snapshot_scalar(
            analysis, snapshot, pieces, FlowEstimate()
        )
        most = max(most, len(pieces))
    return most


def test_hole_between_snapshots_leaves_several_pieces():
    analysis, end = polled_analysis(seed=5, polls=5, packets=(80, 120))
    # Dropping a middle snapshot opens a hole the older ones cannot fill.
    snapshots = [s for i, s in enumerate(analysis.tw_snapshots) if i != 2]
    wide = QueryInterval(0, end + 100)  # wider than all coverage
    assert most_leftover_pieces(analysis, wide, snapshots) >= 3
    rng = random.Random(5)
    assert_plan_is_oracle(
        analysis, [wide] + random_intervals(rng, end, 25), snapshots
    )


def test_valid_from_clamps_split_the_same_pieces():
    # Polls far shorter than the windows' span: every snapshot's nominal
    # coverage reaches back past its valid_from_ns and must be clamped.
    analysis, end = polled_analysis(
        seed=9, polls=6, packets=(5, 20), gap=(1, 6), idle=(1, 10)
    )
    k = analysis.config.k
    assert any(
        fw.coverage_ns(k) is not None and fw.coverage_ns(k)[0] < s.valid_from_ns
        for s in analysis.tw_snapshots
        for fw in s.windows
    )
    rng = random.Random(9)
    intervals = [QueryInterval(0, end + 50)] + random_intervals(rng, end, 30)
    assert_plan_is_oracle(analysis, intervals)


def hand_built_snapshot():
    """Window 0 covers [872, 1000) but retained nothing; 1 and 2 hold cells."""
    f = FLOWS
    return TimeWindowSnapshot(
        read_time_ns=1000,
        windows=make_windows(
            [
                (0, 2, [], 249),
                (1, 3, [(80, f[0]), (90, f[1]), (100, f[0])], 108),
                (2, 4, [(10, f[2]), (20, f[3])], 37),
            ]
        ),
    )


def test_empty_windows_and_uncovered_victims_inside_a_batch():
    analysis = AnalysisProgram(SMALL, d_ns=6.0)
    snapshots = [hand_built_snapshot()]
    whole = QueryInterval(90, 1200)
    intervals = [
        QueryInterval(880, 990),  # only the zero-cell window
        QueryInterval(600, 900),  # zero-cell window, then hits below it
        QueryInterval(0, 50),  # before any coverage
        whole,
        QueryInterval(2000, 3000),  # after any coverage
        whole,  # the same interval twice in one batch
        QueryInterval(150, 340),
        QueryInterval(0, 2**64),  # endpoints outside int64
        QueryInterval(-(2**70), 10),
    ]
    assert_plan_is_oracle(analysis, intervals, snapshots)
    batch = analysis.query_time_windows_batch(intervals, snapshots=snapshots)
    assert [len(e) for e in batch] == [0, 2, 0, 4, 0, 4, 2, 4, 0]
    assert batch[3] is not batch[5]


@pytest.mark.parametrize("budget", [32, 64])  # victims hold 28-42 cells
def test_batch_is_cut_at_victim_boundaries_by_the_cell_budget(
    run, victim_intervals, monkeypatch, budget
):
    monkeypatch.setattr(queryplan, "_CELL_BUDGET", budget)
    passes = []
    accumulate = CompiledQueryPlan._accumulate

    def spy(self, segments, first_victim, rows, fractional_cells):
        cells = int((segments.b - segments.a).sum())
        passes.append((first_victim, rows, cells))
        return accumulate(self, segments, first_victim, rows, fractional_cells)

    monkeypatch.setattr(CompiledQueryPlan, "_accumulate", spy)
    analysis = run.pq.analysis
    # Victims nobody covers cost no cells: they ride along in a pass.
    intervals = victim_intervals[:20] + [QueryInterval(1, 2)] * 3
    batch = analysis.query_time_windows_batch(intervals)
    assert items(batch) == items(scalar_estimates(analysis, intervals))
    # Consecutive passes tile the batch, whole victims each.
    assert [p[0] for p in passes] == [
        sum(p[1] for p in passes[:i]) for i in range(len(passes))
    ]
    assert sum(p[1] for p in passes) == len(intervals)
    # One victim alone may exceed the budget; several together never do.
    assert all(cells <= budget for _, rows, cells in passes if rows > 1)
    if budget == 32:
        assert any(rows == 1 and cells > budget for _, rows, cells in passes)
    else:
        assert sum(rows > 1 and cells > 0 for _, rows, cells in passes) > 1


def test_single_and_batch_calls_interleave_on_one_plan(run, victim_intervals):
    analysis = run.pq.analysis
    intervals = victim_intervals[:12]
    oracle = items(scalar_estimates(analysis, intervals))
    plan = analysis.compiled_plan()
    answered = plan.queries_answered
    assert list(plan.query(intervals[3]).items()) == oracle[3]
    assert items(plan.query_batch(intervals)) == oracle
    assert list(plan.query(intervals[7]).items()) == oracle[7]
    assert items(plan.query_batch(intervals[::-1])) == oracle[::-1]
    assert items(plan.query_batch(intervals[:1])) == oracle[:1]
    assert plan.query_batch([]) == []
    assert plan.queries_answered == answered + 2 + 2 * len(intervals) + 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_plans_and_batches_match_scalar(data):
    """Property: any batch over any multi-snapshot plan, any budget."""
    seed = data.draw(st.integers(0, 2**16))
    polls = data.draw(st.integers(1, 5))
    dense = data.draw(st.booleans())
    analysis, end = polled_analysis(
        seed,
        polls,
        packets=(0, 30) if dense else (0, 120),
        gap=(1, 6) if dense else (1, 40),
        idle=(1, 10) if dense else (1, 300),
    )
    kept = data.draw(
        st.lists(st.booleans(), min_size=polls, max_size=polls).filter(any)
    )
    snapshots = [s for s, keep in zip(analysis.tw_snapshots, kept) if keep]
    rng = random.Random(seed)
    intervals = random_intervals(rng, end, data.draw(st.integers(1, 12)))
    intervals += intervals[: data.draw(st.integers(0, 2))]  # repeats
    budget = data.draw(st.sampled_from([1, 7, 64, 1 << 17]))
    with mock.patch.object(queryplan, "_CELL_BUDGET", budget):
        assert_plan_is_oracle(analysis, intervals, snapshots)


# ---------------------------------------------------------------------------
# the front door: query(interval=) == query(intervals=)[0] == the scalar walk


def assert_port_answers_are_oracle(pq, intervals):
    analysis = pq.analysis
    periodic = [s for s in analysis.tw_snapshots if s.source == "periodic"]
    executed = analysis.queries_executed
    for iv in intervals:
        oracle = query_time_windows_scalar(analysis, iv, snapshots=periodic)
        single = pq.query(interval=iv).estimate
        batch = pq.query(intervals=[iv])[0].estimate
        assert list(single.items()) == list(oracle.items())
        assert list(batch.items()) == list(oracle.items())
    assert analysis.queries_executed == executed + 2 * len(intervals)


def test_front_door_on_a_fused_ingest_port():
    fused = simulate_workload(
        "ws", duration_ns=1_500_000, load=1.3, config=CONFIG, seed=21, engine="fused"
    )
    victims = sorted(fused.records, key=lambda r: r.queuing_delay, reverse=True)
    intervals = [
        QueryInterval.for_victim(v.enq_timestamp, v.deq_timestamp)
        for v in victims[:10]
    ]
    assert_port_answers_are_oracle(fused.pq, intervals)


def test_front_door_on_a_port_with_quarantined_snapshots():
    pq = PrintQueuePort(
        FAULT_CFG,
        model_dp_read_cost=False,
        faults=FaultPlan(name="all-torn", torn_read_rate=1.0),
    )
    end = drive_faulted(pq)
    assert pq.poller.log.quarantined_cells > 0
    rng = random.Random(3)
    assert_port_answers_are_oracle(pq, random_intervals(rng, end, 15))


def test_plan_on_an_mmap_replay(tmp_path):
    path = tmp_path / "run.pqstore"
    store = MmapStore(path)
    live = simulate_workload(
        "ws",
        duration_ns=1_500_000,
        load=1.3,
        config=CONFIG,
        seed=21,
        engine="fused",
        store=store,
    )
    store.close()
    replayed = replay_analysis(path, backend="mmap")
    victims = sorted(live.records, key=lambda r: r.queuing_delay, reverse=True)
    intervals = [
        QueryInterval.for_victim(v.enq_timestamp, v.deq_timestamp)
        for v in victims[:10]
    ]
    assert_plan_is_oracle(replayed, intervals)
    assert items(replayed.query_time_windows_batch(intervals)) == items(
        scalar_estimates(live.pq.analysis, intervals)
    )
