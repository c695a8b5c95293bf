"""Fault injection + the resilient control-plane read path.

Three contracts are pinned here:

1. **Zero overhead** — ``faults=None`` is the all-zero ``none`` profile:
   every register bank, counter, snapshot, answer, report section and
   stage timing count is that of a perfect channel.
2. **Engine independence** — under every profile the scalar and production
   ingest engines inject the same faults and converge to the same state.
3. **Graceful degradation** — under every profile, queries complete
   without exceptions and their ``degraded``/``coverage`` surface names
   exactly what was lost.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueue, PrintQueuePort
from repro.core.queries import QueryInterval
from repro.errors import ConfigError
from repro.experiments.runner import query_time_windows_scalar, simulate_workload
from repro.faults import (
    PROFILES,
    FaultInjector,
    FaultPlan,
    as_injector,
    profile,
    profile_names,
    validate_filtered_windows,
)
from repro.faults.resilience import BACKOFF_NS, MAX_ATTEMPTS
from repro.obs.metrics import Metrics
from repro.switch.packet import FlowKey

from tests.test_fused_ingest import _port_state
from tests.windows import make_windows

CFG = PrintQueueConfig(m0=6, k=8, alpha=2, T=3, qm_levels=1024)


def _flow(i: int) -> FlowKey:
    return FlowKey.from_strings(
        f"10.0.{(i >> 8) & 255}.{i & 255}", "10.1.0.1", 5000 + i % 37, 80
    )


def _drive(pq, packets=1200, spacing_ns=1500, finish=True):
    """Feed a deterministic enqueue/dequeue stream through the port.

    Defaults span ~1.8 ms — about five set periods of ``CFG`` (344 µs),
    so every rate-1.0 plan gets multiple full polls and dozens of
    standalone queue-monitor polls to fault.  ``finish=False`` leaves the
    active bank un-flushed, so a subsequent on-demand read sees live
    data instead of a freshly-flipped (empty) bank.
    """
    t = 0
    for i in range(packets):
        t += spacing_ns
        flow = _flow(i % 7)
        pq.process_enqueue(flow, t, (i % 5) + 1)
        pq.process_dequeue(flow, t + spacing_ns // 2, i % 5)
    end = t + spacing_ns
    if finish:
        pq.finish(end)
    return end


# ---------------------------------------------------------------------------
# FaultPlan / profiles


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(poll_drop_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(poll_drop_rate=0.6, poll_delay_rate=0.6)
        with pytest.raises(ConfigError):
            FaultPlan(torn_read_rate=0.5, corrupt_cell_rate=0.3, rpc_failure_rate=0.3)
        with pytest.raises(ConfigError):
            FaultPlan(qm_drop_rate=0.7, qm_seq_regression_rate=0.7)
        with pytest.raises(ConfigError):
            FaultPlan(max_affected_cells=0)
        with pytest.raises(ConfigError):
            FaultPlan(poll_delay_ns=0)

    def test_enabled_and_reseed(self):
        assert not FaultPlan().enabled
        assert FaultPlan(rpc_failure_rate=0.1).enabled
        plan = profile("chaos").with_seed(99)
        assert plan.seed == 99 and plan.name == "chaos"

    def test_profiles(self):
        assert "chaos" in profile_names()
        assert not PROFILES["none"].enabled
        for name in profile_names():
            assert PROFILES[name].name == name
            assert name in PROFILES[name].describe()
        with pytest.raises(ConfigError):
            profile("no-such-profile")

    def test_as_injector_coercions(self):
        assert as_injector("chaos").plan.name == "chaos"
        plan = FaultPlan(rpc_failure_rate=0.1)
        assert as_injector(plan).plan is plan
        inj = FaultInjector(plan)
        assert as_injector(inj) is inj
        with pytest.raises(TypeError):
            as_injector(42)


# ---------------------------------------------------------------------------
# snapshot validation + guaranteed-detectable tampering


def _synthetic_windows(k=8, cells_per_window=20):
    flows = [_flow(i) for i in range(cells_per_window)]
    specs = []
    for wi in range(3):
        ref = 5_000 + wi
        cells = list(zip(range(ref - cells_per_window + 1, ref + 1), flows))
        specs.append((wi, wi, cells, ref))
    return make_windows(specs)


class TestValidation:
    def test_clean_windows_pass(self):
        windows = _synthetic_windows()
        cleaned, violations = validate_filtered_windows(windows, k=8)
        assert violations == []
        assert cleaned is not None and len(cleaned) == len(windows)

    def test_out_of_range_cells_quarantined(self):
        windows = _synthetic_windows(k=8)
        fw = windows[1]
        bad_tts = fw.tts_array.copy()
        bad_tts[0] = fw.reference_tts - (1 << 8)  # stale: previous cycle
        bad_tts[1] = fw.reference_tts + 7  # corrupt: future cycle bits
        windows[1] = fw.with_columns(bad_tts, fw.flow_idx)
        cleaned, violations = validate_filtered_windows(windows, k=8)
        assert violations == [(1, 2)]
        assert len(cleaned[1].cells) == len(fw.cells) - 2

    @pytest.mark.parametrize("kind", ["torn", "corrupt"])
    def test_tampering_is_always_detected(self, kind):
        """Every cell the injector damages lands outside the valid TTS
        range, so validation catches 100% of them — by construction."""
        for seed in range(20):
            injector = FaultInjector(FaultPlan(seed=seed, max_affected_cells=6))
            windows = _synthetic_windows(k=8)
            tampered, n_cells = injector.tamper_filtered(windows, 8, kind)
            assert n_cells > 0
            _, violations = validate_filtered_windows(tampered, k=8)
            assert sum(n for _, n in violations) == n_cells
            # the pristine input was never mutated
            _, pristine_violations = validate_filtered_windows(windows, k=8)
            assert pristine_violations == []

    def test_empty_read_tamper_is_noop(self):
        injector = FaultInjector(FaultPlan(seed=1))
        empty = make_windows([(0, 0, [], None)])
        tampered, n = injector.tamper_filtered(empty, 8, "torn")
        assert n == 0 and tampered is empty
        assert injector.injected == {}


# ---------------------------------------------------------------------------
# zero-overhead invariant


class TestZeroOverhead:
    @pytest.mark.parametrize("engine", ["scalar", "fused"])
    def test_none_profile_is_bit_identical(self, engine):
        # The light load leaves idle gaps across full-poll instants, where
        # the polls due at one event must still fire in time order.
        for duration_ns, load in ((1_000_000, 1.3), (3_000_000, 0.3)):
            kw = dict(duration_ns=duration_ns, load=load, config=CFG, seed=5)
            base = simulate_workload("ws", engine=engine, metrics=Metrics(), **kw)
            nulled = simulate_workload(
                "ws", engine=engine, faults="none", metrics=Metrics(), **kw
            )
            assert _port_state(base.pq) == _port_state(nulled.pq), load
            victim = max(base.records, key=lambda r: r.queuing_delay)
            interval = QueryInterval.for_victim(
                victim.enq_timestamp, victim.deq_timestamp
            )
            a = base.pq.query(interval=interval)
            b = nulled.pq.query(interval=interval)
            assert a.estimate._counts == b.estimate._counts
            assert a.degraded is False and b.degraded is False
            assert a.coverage is None and b.coverage is None
            # both time every poll's filter and encode stage
            for stage in ("filter", "encode"):
                name = f"pq_ingest_stage_{stage}_ns"
                counts = [run.metrics.histogram(name).count for run in (base, nulled)]
                assert counts[0] == counts[1] > 0, (stage, counts)
            reports = [run.report() for run in (base, nulled)]
            assert reports[0].deterministic_view() == reports[1].deterministic_view()
            assert reports[0].section("faults") == {"enabled": False}
            assert reports[1].section("faults") == {"enabled": False}
            # an all-zero plan never consumes an RNG draw, so the
            # injector's stream is untouched and the tally empty
            assert nulled.pq.faults.injected == {}
            fresh = type(nulled.pq.faults.rng)(0)
            assert nulled.pq.faults.rng.random() == fresh.random()


@pytest.mark.parametrize("model_dp_read_cost", [True, False])
def test_data_plane_reads_time_their_filter(model_dp_read_cost):
    """Both on-demand read branches run Algorithm 3 through the timed
    filter path, as periodic reads do: one filter observation each."""
    run = simulate_workload(
        "ws", duration_ns=3_000_000, load=1.3, config=CFG, seed=5, metrics=Metrics()
    )
    run.pq.analysis.model_dp_read_cost = model_dp_read_cost
    histogram = run.metrics.histogram("pq_ingest_stage_filter_ns")
    before = histogram.count
    assert before > 0
    t = run.records[-1].deq_timestamp
    for i in range(5):
        at = t + 500_000 * (i + 1)  # spaced past the modelled read cost
        result = run.pq.query(
            interval=QueryInterval(at - 200_000, at), mode="data_plane", at_ns=at
        )
        assert result.accepted
    assert histogram.count == before + 5


@pytest.mark.parametrize("engine", ["scalar", "fused"])
@pytest.mark.parametrize("faults", [None, "none", "chaos"])
def test_max_seq_is_the_column_maximum(engine, faults, monkeypatch):
    """A live snapshot's stamped ``max_seq`` equals its columns' maximum,
    and a regressed read (stamp dropped) rescans to the regressed one."""
    regressed = []
    regress_qm = FaultInjector.regress_qm

    def spy(self, snapshot, floor_seq):
        hit = regress_qm(self, snapshot, floor_seq)
        if hit:
            regressed.append(snapshot)
        return hit

    monkeypatch.setattr(FaultInjector, "regress_qm", spy)
    run = simulate_workload(
        "ws",
        duration_ns=1_500_000,
        load=1.3,
        config=CFG,
        seed=9,
        engine=engine,
        faults=faults,
    )
    stored = list(run.pq.analysis.qm_snapshots)
    assert stored and all(s.seq_stamp is not None for s in stored)
    assert all(s.seq_stamp is None for s in regressed)
    if faults == "chaos":
        assert regressed
    for snapshot in stored + regressed:
        column_max = max(int(snapshot.inc_seq.max()), int(snapshot.dec_seq.max()))
        assert snapshot.max_seq == column_max


# ---------------------------------------------------------------------------
# engine independence under faults


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_scalar_matches_batched_under_faults(name):
    runs = {}
    for engine in ("scalar", "fused"):
        runs[engine] = simulate_workload(
            "ws",
            duration_ns=1_500_000,
            load=1.3,
            config=CFG,
            seed=9,
            engine=engine,
            faults=name,
        )
    scalar, batched = runs["scalar"], runs["fused"]
    assert _port_state(scalar.pq) == _port_state(batched.pq)
    assert scalar.pq.faults.injected == batched.pq.faults.injected
    assert scalar.pq.poller.log.to_dict() == batched.pq.poller.log.to_dict()
    assert (
        scalar.report().deterministic_view() == batched.report().deterministic_view()
    )


def test_same_seed_reproduces_same_faults():
    a = simulate_workload(
        "ws", duration_ns=1_500_000, load=1.3, config=CFG, seed=9, faults="chaos"
    )
    b = simulate_workload(
        "ws", duration_ns=1_500_000, load=1.3, config=CFG, seed=9, faults="chaos"
    )
    assert a.pq.faults.injected == b.pq.faults.injected
    assert a.pq.poller.log.to_dict() == b.pq.poller.log.to_dict()
    assert _port_state(a.pq) == _port_state(b.pq)
    # different injector seeds give different draw streams
    import random

    assert random.Random(0).random() != random.Random(1).random()


# ---------------------------------------------------------------------------
# degradation semantics, one hazard at a time


class TestDroppedPolls:
    def test_lost_ranges_and_degraded_queries(self):
        plan = FaultPlan(name="all-drop", poll_drop_rate=1.0)
        pq = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
        end = _drive(pq)
        log = pq.poller.log
        assert log.lost_polls > 0
        assert log.lost_polls == pq.faults.injected["polls_dropped"]
        assert log.lost_ranges, "dropped polls must record lost ranges"
        # a query over a lost range is degraded and says which range
        start, stop = log.lost_ranges[0]
        result = pq.query(interval=QueryInterval(start, stop))
        assert result.degraded is True
        assert result.coverage is not None and result.coverage.lost_ns
        assert "lost range" in result.coverage.describe()
        # batched queries carry per-victim coverage
        batch = pq.query(
            intervals=[QueryInterval(start, stop), QueryInterval(end + 10, end + 20)]
        )
        assert batch.degraded is True
        assert batch[0].degraded is True
        assert batch[1].coverage is not None and batch[1].degraded is False


class TestDelayedPolls:
    def test_catchup_loses_nothing(self):
        plan = FaultPlan(name="all-delay", poll_delay_rate=1.0, poll_delay_ns=1000)
        pq = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
        _drive(pq)
        log = pq.poller.log
        assert log.delayed_polls > 0
        assert log.delayed_polls == pq.faults.injected["polls_delayed"]
        assert log.lost_polls == 0 and not log.lost_ranges
        # delayed snapshots were still read at their (late) fire instants
        periodic = [
            s for s in pq.analysis.tw_snapshots if s.source == "periodic"
        ]
        assert periodic
        set_period = CFG.set_period_ns
        late = [s for s in periodic if s.read_time_ns % set_period != 0]
        assert late, "catch-up reads fire off the poll grid"

    def test_pending_poll_bounds_ingest_boundary(self):
        plan = FaultPlan(poll_delay_rate=1.0, poll_delay_ns=1000)
        pq = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
        flow = _flow(0)
        # cross the first full-poll deadline so the delay is pending
        due = CFG.set_period_ns
        pq.process_enqueue(flow, due + 1, 1)
        pending = pq.poller.pending_full_ns
        assert pending == due + 1000
        assert pq.next_poll_boundary_ns <= pending


class TestRpcFailures:
    def test_retry_backoff_schedule_and_exhaustion(self):
        plan = FaultPlan(name="dead-rpc", rpc_failure_rate=1.0)
        pq = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
        _drive(pq)
        log = pq.poller.log
        assert log.retry_exhausted > 0
        assert log.lost_polls == log.retry_exhausted
        # every poll burns MAX_ATTEMPTS draws, MAX_ATTEMPTS - 1 retries,
        # each backing off twice as long as the last
        polls = log.retry_exhausted
        assert BACKOFF_NS == (1_000, 2_000, 4_000) and MAX_ATTEMPTS == 4
        assert pq.faults.injected["rpc_failures"] == polls * MAX_ATTEMPTS
        assert log.retries == polls * (MAX_ATTEMPTS - 1)
        assert log.retry_backoff_ns_total == polls * sum(BACKOFF_NS)

    def test_recovery_is_counted(self):
        # fail ~half the attempts: with 4 attempts per read almost every
        # poll eventually lands, and many needed at least one retry.
        plan = FaultPlan(name="half-rpc", seed=3, rpc_failure_rate=0.5)
        pq = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
        _drive(pq, packets=2400)
        log = pq.poller.log
        assert log.reads_recovered > 0
        assert log.retries > 0


class TestTornReads:
    def test_quarantine_after_budget(self):
        plan = FaultPlan(name="all-torn", torn_read_rate=1.0)
        pq = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
        _drive(pq)
        log = pq.poller.log
        assert log.quarantines, "exhausted torn reads must quarantine"
        assert log.quarantined_cells > 0
        # stored snapshots are clean: re-validating finds nothing
        for snapshot in pq.analysis.tw_snapshots:
            _, violations = validate_filtered_windows(snapshot.windows, CFG.k)
            assert violations == []
        # quarantines carry spans, so queries over them report degraded
        spanned = [q for q in log.quarantines if q.span_ns is not None]
        assert spanned
        start, stop = spanned[0].span_ns
        result = pq.query(interval=QueryInterval(start, max(stop, start + 1)))
        assert result.degraded is True
        assert result.coverage.quarantined


class TestQueueMonitorFaults:
    def test_regressions_quarantined_and_counted(self):
        plan = FaultPlan(name="all-regress", qm_seq_regression_rate=1.0)
        pq = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
        _drive(pq, packets=2400)
        log = pq.poller.log
        assert log.qm_quarantined > 0
        assert pq.faults.injected["qm_seq_regressions"] == log.qm_quarantined
        # stored monitor snapshots never regress below the accepted floor
        floor = 0
        for snapshot in pq.analysis.qm_snapshots:
            peak = max(snapshot.inc_seq.max(), snapshot.dec_seq.max())
            if peak != -1:
                assert peak >= floor
                floor = max(floor, peak)

    def test_dropped_qm_polls_degrade_nearby_queries(self):
        plan = FaultPlan(name="qm-drop", qm_drop_rate=1.0)
        pq = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
        _drive(pq)
        log = pq.poller.log
        assert log.qm_lost_ns
        assert pq.faults.injected["qm_polls_dropped"] == len(log.qm_lost_ns)
        # query right at a lost instant: a nearer poll existed but was lost
        lost = log.qm_lost_ns[0]
        result = pq.query(at_ns=lost)
        assert result.kind == "queue_monitor"
        if result.degraded:
            assert result.coverage.qm_lost_ns


# ---------------------------------------------------------------------------
# on-demand (data-plane) reads


class TestDataPlaneReads:
    def _port(self, plan):
        return PrintQueuePort(CFG, model_dp_read_cost=True, faults=plan)

    def test_quarantine_invalidates_plan_caches(self):
        plan = FaultPlan(name="dp-corrupt", corrupt_cell_rate=1.0)
        pq = self._port(plan)
        # no finish(): the on-demand read must see the live bank, not a
        # freshly-flushed empty one.
        t = _drive(pq, finish=False)
        version_before = pq.analysis._snapshots_version
        result = pq.query(
            interval=QueryInterval(t - 10_000, t), mode="data_plane", at_ns=t
        )
        assert result.accepted is True
        assert result.degraded is True
        assert result.coverage is not None and result.coverage.quarantined
        assert pq.analysis._snapshots_version > version_before
        # the answer compiled the snapshot after quarantine: its columnar
        # memo is built from the validated windows, and the answer is the
        # specification's over them
        _, compiled = result.snapshot._columnar_cache
        kept = {id(fw.tts_array) for fw in result.snapshot.windows}
        assert compiled.windows and all(id(w.tts) in kept for w in compiled.windows)
        spec = query_time_windows_scalar(
            pq.analysis, result.interval, snapshots=[result.snapshot]
        )
        assert list(result.estimate.items()) == list(spec.items())
        # and validates clean after quarantine
        _, violations = validate_filtered_windows(result.snapshot.windows, CFG.k)
        assert violations == []

    def test_rpc_exhaustion_degrades_not_crashes(self):
        plan = FaultPlan(name="dp-dead", rpc_failure_rate=1.0)
        pq = self._port(plan)
        t = _drive(pq)
        result = pq.query(
            interval=QueryInterval(t - 10_000, t), mode="data_plane", at_ns=t
        )
        assert result.accepted is False
        assert result.degraded is True
        assert len(result.estimate._counts) == 0
        assert pq.poller.log.dp_read_failures == 1


# ---------------------------------------------------------------------------
# graceful degradation + reconciliation across every profile


def _injected_counters(registry):
    """Read pq_faults_injected_total back out of a Metrics registry."""
    out = {}
    for key, value in registry.snapshot().items():
        if key.startswith('pq_faults_injected_total{kind="'):
            kind = key[len('pq_faults_injected_total{kind="') : -len('"}')]
            out[kind] = value
    return out


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_queries_survive_every_profile(name):
    run = simulate_workload(
        "ws",
        duration_ns=1_500_000,
        load=1.3,
        config=CFG,
        seed=21,
        faults=name,
        metrics=Metrics(),
    )
    pq = run.pq
    victim = max(run.records, key=lambda r: r.queuing_delay)
    interval = QueryInterval.for_victim(victim.enq_timestamp, victim.deq_timestamp)
    single = pq.query(interval=interval)
    batch = pq.query(intervals=[interval, QueryInterval(0, 50_000)])
    point = pq.query(at_ns=victim.enq_timestamp)
    for result in (single, batch[0], batch[1], point):
        assert result.estimate is not None
        if result.degraded:
            assert result.coverage is not None and result.coverage.degraded
        elif result.coverage is not None:
            assert not result.coverage.degraded
    # injected-fault counts reconcile exactly: injector tally == report
    # section == pq_faults_injected_total in both metric surfaces
    report = run.report()
    section = report.section("faults")
    if name == "none":  # reports exactly as a fault-free port
        assert section == {"enabled": False} and pq.faults.injected == {}
    else:
        assert section["enabled"] is True
        assert section["profile"] == name
        assert section["injected"] == pq.faults.injected
        assert section["resilience"] == pq.poller.log.to_dict()
    assert _injected_counters(report.to_metrics()) == pq.faults.injected
    assert _injected_counters(run.metrics) == pq.faults.injected


# ---------------------------------------------------------------------------
# multi-port deployments


class TestMultiPort:
    def test_per_port_seeds_derived(self):
        deployment = PrintQueue(CFG, [1, 2, 3], faults="chaos")
        seeds = [deployment.port(p).faults.plan.seed for p in (1, 2, 3)]
        assert seeds == [0, 1, 2]
        assert all(
            deployment.port(p).faults.plan.name == "chaos" for p in (1, 2, 3)
        )

    def test_shared_injector_rejected(self):
        injector = FaultInjector(profile("chaos"))
        with pytest.raises(ConfigError):
            PrintQueue(CFG, [1, 2], faults=injector)

    def test_fault_free_by_default(self):
        deployment = PrintQueue(CFG, [1, 2])
        assert all(not pq.faults.plan.enabled for pq in deployment.ports.values())


# ---------------------------------------------------------------------------
# chaos property: random plans never crash, always reconcile


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    drop=st.floats(min_value=0.0, max_value=0.5),
    delay=st.floats(min_value=0.0, max_value=0.5),
    torn=st.floats(min_value=0.0, max_value=0.3),
    corrupt=st.floats(min_value=0.0, max_value=0.3),
    rpc=st.floats(min_value=0.0, max_value=0.3),
    qm_drop=st.floats(min_value=0.0, max_value=0.5),
    qm_regress=st.floats(min_value=0.0, max_value=0.5),
)
def test_chaos_property(seed, drop, delay, torn, corrupt, rpc, qm_drop, qm_regress):
    plan = FaultPlan(
        name="hypothesis",
        seed=seed,
        poll_drop_rate=drop,
        poll_delay_rate=delay,
        torn_read_rate=torn,
        corrupt_cell_rate=corrupt,
        rpc_failure_rate=rpc,
        qm_drop_rate=qm_drop,
        qm_seq_regression_rate=qm_regress,
    )
    pq = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
    end = _drive(pq, packets=1200)
    log = pq.poller.log
    injected = pq.faults.injected
    # no query ever raises, whatever the damage
    result = pq.query(interval=QueryInterval(0, end))
    assert result.estimate is not None
    point = pq.query(at_ns=end // 2)
    assert point.estimate is not None
    # the books balance: every injected control-plane fault is accounted
    # for by the resilience log
    assert log.lost_polls >= injected.get("polls_dropped", 0)
    assert log.delayed_polls == injected.get("polls_delayed", 0)
    assert len(log.qm_lost_ns) >= injected.get("qm_polls_dropped", 0)
    assert log.qm_quarantined == injected.get("qm_seq_regressions", 0)
    # stored state is always internally valid
    for snapshot in pq.analysis.tw_snapshots:
        _, violations = validate_filtered_windows(snapshot.windows, CFG.k)
        assert violations == []
    # and the whole run replays bit-identically from the same seed
    pq2 = PrintQueuePort(CFG, model_dp_read_cost=False, faults=plan)
    _drive(pq2, packets=1200)
    assert pq2.faults.injected == injected
    assert pq2.poller.log.to_dict() == log.to_dict()
