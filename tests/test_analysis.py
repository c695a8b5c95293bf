"""Tests for the control-plane analysis program: polling, snapshot
coverage, interval splitting, and count recovery on synthetic streams."""

import pytest

from repro.core.analysis import AnalysisProgram
from repro.core.config import PrintQueueConfig
from repro.core.queries import QueryInterval
from repro.errors import QueryError
from repro.store import MemoryStore, RetentionPolicy
from repro.switch.packet import FlowKey

FLOWS = [
    FlowKey.from_strings("10.0.%d.%d" % (i // 200, i % 200 + 1), "10.1.0.1", 5000 + i, 80)
    for i in range(16)
]


def cfg(m0=4, k=6, alpha=1, T=3):
    return PrintQueueConfig(m0=m0, k=k, alpha=alpha, T=T)


def feed_uniform(analysis, start_ns, end_ns, gap_ns, flow_of=None):
    """One packet every gap_ns; returns per-flow true counts."""
    counts = {}
    t = start_ns
    i = 0
    while t < end_ns:
        flow = FLOWS[i % len(FLOWS)] if flow_of is None else flow_of(i)
        analysis.on_dequeue(flow, t)
        counts[flow] = counts.get(flow, 0) + 1
        t += gap_ns
        i += 1
    return counts


class TestPolling:
    def test_periodic_poll_stores_snapshot(self):
        analysis = AnalysisProgram(cfg())
        feed_uniform(analysis, 0, 1000, 16)
        snap = analysis.periodic_poll(1000)
        assert analysis.tw_snapshots == [snap]
        assert snap.source == "periodic"
        assert len(analysis.qm_snapshots) == 1

    def test_snapshot_ring_bounded(self):
        analysis = AnalysisProgram(
            cfg(), store=MemoryStore(RetentionPolicy(max_snapshots=3))
        )
        for i in range(10):
            analysis.periodic_poll(i * 1000)
        assert len(analysis.tw_snapshots) == 3
        assert len(analysis.qm_snapshots) == 3

    def test_valid_from_tracks_activation(self):
        analysis = AnalysisProgram(cfg())
        s1 = analysis.periodic_poll(1000)
        s2 = analysis.periodic_poll(2000)
        assert s1.valid_from_ns == 0
        assert s2.valid_from_ns == 1000


class TestQueryNoSnapshots:
    def test_raises(self):
        analysis = AnalysisProgram(cfg())
        with pytest.raises(QueryError):
            analysis.query_time_windows(QueryInterval(0, 10))

    def test_qm_raises(self):
        analysis = AnalysisProgram(cfg())
        with pytest.raises(QueryError):
            analysis.query_queue_monitor(0)


class TestRecovery:
    def test_window0_exact_for_recent_interval(self):
        """A query entirely inside window 0's span is exact: one packet
        per cell, no compression."""
        config = cfg(m0=4, k=8, alpha=1, T=3)
        analysis = AnalysisProgram(config, d_ns=16.0)
        # One packet per cell period (gap = 2^m0 = 16 ns): no collisions.
        feed_uniform(analysis, 0, 40_000, 16)
        analysis.periodic_poll(40_000)
        # Window 0 period = 2^(4+8) = 4096 ns; query the last 2000 ns.
        interval = QueryInterval(38_000, 40_000)
        estimate = analysis.query_time_windows(interval)
        expected = 2000 // 16
        assert estimate.total == pytest.approx(expected, abs=2)

    def test_deep_window_recovery_within_tolerance(self):
        """Queries over old spans hit compressed windows; coefficient
        division recovers totals within a modest relative error."""
        config = cfg(m0=4, k=8, alpha=1, T=4)
        analysis = AnalysisProgram(config, d_ns=16.0)
        feed_uniform(analysis, 0, 60_000, 16)
        analysis.periodic_poll(60_000)
        # Window 0 covers [~56k, 60k]; query [20k, 40k] (deep windows).
        interval = QueryInterval(20_000, 40_000)
        estimate = analysis.query_time_windows(interval)
        expected = 20_000 / 16
        assert estimate.total == pytest.approx(expected, rel=0.4)

    def test_interval_split_across_snapshots(self):
        config = cfg(m0=4, k=8, alpha=1, T=3)
        analysis = AnalysisProgram(config, d_ns=16.0)
        feed_uniform(analysis, 0, 5_000, 16)
        analysis.periodic_poll(5_000)
        feed_uniform(analysis, 5_000, 10_000, 16)
        analysis.periodic_poll(10_000)
        # The interval spans both snapshots' coverage.
        estimate = analysis.query_time_windows(QueryInterval(4_000, 6_000))
        assert estimate.total == pytest.approx(2000 / 16, rel=0.25)

    def test_per_flow_attribution(self):
        config = cfg(m0=4, k=8, alpha=1, T=2)
        analysis = AnalysisProgram(config, d_ns=16.0)
        # Alternate two flows strictly.
        truth = feed_uniform(
            analysis, 0, 4_000, 16, flow_of=lambda i: FLOWS[i % 2]
        )
        analysis.periodic_poll(4_000)
        estimate = analysis.query_time_windows(QueryInterval(0, 4_000))
        for flow in (FLOWS[0], FLOWS[1]):
            assert estimate[flow] == pytest.approx(truth[flow], rel=0.1)

    def test_coefficients_disabled_underestimates(self):
        """Ablation: without coefficient recovery, deep-window counts are
        biased low."""
        config = cfg(m0=4, k=8, alpha=1, T=4)
        with_c = AnalysisProgram(config, d_ns=16.0)
        without_c = AnalysisProgram(config, d_ns=16.0, apply_coefficients=False)
        for analysis in (with_c, without_c):
            feed_uniform(analysis, 0, 60_000, 16)
            analysis.periodic_poll(60_000)
        interval = QueryInterval(20_000, 40_000)
        assert (
            without_c.query_time_windows(interval).total
            < with_c.query_time_windows(interval).total
        )


class TestDpRead:
    def test_instant_mode_nondestructive(self):
        analysis = AnalysisProgram(cfg(), model_dp_read_cost=False)
        feed_uniform(analysis, 0, 1000, 16)
        active_before = analysis.tw_banks.active_index
        snap = analysis.dp_read(1000)
        assert snap is not None
        assert analysis.tw_banks.active_index == active_before
        assert analysis.tw_snapshots == []  # not stored

    def test_hardware_mode_locks(self):
        analysis = AnalysisProgram(cfg(), model_dp_read_cost=True)
        feed_uniform(analysis, 0, 1000, 16)
        first = analysis.dp_read(1000)
        assert first is not None
        # A trigger during the modelled PCIe read window is rejected.
        assert analysis.dp_read(1001) is None
        assert analysis.tw_banks.dp_rejections == 1
        # After the lock expires, reads succeed again.
        later = analysis.dp_read(1000 + 10**9)
        assert later is not None

    def test_hardware_mode_rotates_banks(self):
        analysis = AnalysisProgram(cfg(), model_dp_read_cost=True)
        before = analysis.tw_banks.active_index
        analysis.dp_read(100)
        assert analysis.tw_banks.active_index != before


class TestQueueMonitorQueries:
    def test_closest_snapshot_selected(self):
        analysis = AnalysisProgram(cfg())
        analysis.queue_monitor.on_enqueue(FLOWS[0], 1)
        analysis.periodic_poll(1000)
        analysis.queue_monitor.on_enqueue(FLOWS[1], 2)
        analysis.periodic_poll(2000)
        snap = analysis.query_queue_monitor(1200)
        assert snap.time_ns == 1000

    def test_original_culprits_counts(self):
        analysis = AnalysisProgram(cfg())
        analysis.queue_monitor.on_enqueue(FLOWS[0], 1)
        analysis.queue_monitor.on_enqueue(FLOWS[0], 2)
        analysis.queue_monitor.on_enqueue(FLOWS[1], 3)
        analysis.periodic_poll(1000)
        estimate = analysis.original_culprits(1000)
        assert estimate[FLOWS[0]] == 2
        assert estimate[FLOWS[1]] == 1
