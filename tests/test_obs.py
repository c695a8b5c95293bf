"""Tests for the observability layer (``repro.obs``).

Covers the metric primitives, the registry, RunReport serialisation, and
the two load-bearing guarantees: enabling metrics changes no diagnosis
result, and the scalar and production ingest engines leave bit-identical
counters behind.
"""

import json

import pytest

from repro.core.diagnosis import Diagnoser
from repro.core.queries import QueryInterval
from repro.experiments.runner import simulate_workload
from repro.obs.metrics import MAX_LOG2_BUCKETS, Counter, Gauge, Histogram, Metrics
from repro.obs.report import DETERMINISTIC_SECTIONS, RunReport


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.snapshot() == 5

    def test_gauge_set_and_set_max(self):
        g = Gauge()
        g.set(7)
        g.set_max(3)
        assert g.snapshot() == 7
        g.set_max(11)
        assert g.snapshot() == 11
        g.set(2)
        assert g.snapshot() == 2

    def test_histogram_log2_bucket_boundaries(self):
        h = Histogram()
        for v in (0, 1, 2, 3, 4, 7, 8):
            h.observe(v)
        # bucket b covers [2^(b-1), 2^b): 0 -> b0; 1 -> b1; 2,3 -> b2;
        # 4..7 -> b3; 8 -> b4.
        assert h.counts[0] == 1
        assert h.counts[1] == 1
        assert h.counts[2] == 2
        assert h.counts[3] == 2
        assert h.counts[4] == 1
        assert h.count == 7
        assert h.sum == 25
        assert h.mean == pytest.approx(25 / 7)

    def test_histogram_overflow_clamps_to_last_bucket(self):
        h = Histogram()
        h.observe(1 << 100)
        assert h.counts[MAX_LOG2_BUCKETS - 1] == 1

    def test_histogram_nonzero_buckets_upper_bounds(self):
        h = Histogram()
        h.observe(3)
        h.observe(3)
        h.observe(100)
        # 3 -> bucket 2 (upper bound 2^2-1=3); 100 -> bucket 7 (ub 127).
        assert h.nonzero_buckets() == [(3, 2), (127, 1)]

    def test_histogram_snapshot_shape(self):
        h = Histogram()
        h.observe(5)
        snap = h.snapshot()
        assert snap == {"count": 1, "sum": 5, "mean": 5.0, "buckets": {"7": 1}}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        m = Metrics()
        assert m.counter("a") is m.counter("a")
        assert m.histogram("h", kind="x") is m.histogram("h", kind="x")
        assert len(m) == 2

    def test_labels_distinguish_instruments(self):
        m = Metrics()
        m.counter("q", kind="dp").inc()
        m.counter("q", kind="async").inc(2)
        assert m.find("q", kind="dp").value == 1
        assert m.find("q", kind="async").value == 2
        assert m.find("q", kind="missing") is None

    def test_kind_clash_raises(self):
        m = Metrics()
        m.counter("x")
        with pytest.raises(TypeError, match="already registered as counter"):
            m.gauge("x")

    def test_snapshot_renders_labels(self):
        m = Metrics()
        m.counter("hits", port="0").inc(3)
        m.gauge("depth").set(9)
        snap = m.snapshot()
        assert snap == {'hits{port="0"}': 3, "depth": 9}

    def test_prometheus_exposition(self):
        m = Metrics()
        m.counter("c_total").inc(2)
        m.histogram("lat").observe(3)
        m.histogram("lat").observe(100)
        text = m.to_prometheus()
        lines = text.splitlines()
        assert "# TYPE c_total counter" in lines
        assert "c_total 2" in lines
        assert "# TYPE lat histogram" in lines
        # Buckets are cumulative and end with +Inf == count.
        assert 'lat_bucket{le="3"} 1' in lines
        assert 'lat_bucket{le="127"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 2' in lines
        assert "lat_sum 103" in lines
        assert "lat_count 2" in lines
        assert text.endswith("\n")

    def test_samples_timeline(self):
        m = Metrics()
        m.sample(100, {"packets_seen": 5})
        m.sample(200, {"packets_seen": 9})
        assert m.samples == [(100, {"packets_seen": 5}), (200, {"packets_seen": 9})]


@pytest.fixture(scope="module")
def small_run():
    return simulate_workload(
        "ws", duration_ns=2_000_000, load=1.3, seed=5, metrics=Metrics()
    )


class TestRunReport:
    def test_sections_present(self, small_run):
        report = small_run.report()
        for name in DETERMINISTIC_SECTIONS:
            assert report.section(name) is not None, name
        assert report.section("queries") is not None
        assert report.section("metrics") is not None

    def test_per_level_counters_consistent(self, small_run):
        tw = small_run.report().section("time_windows")
        per_level = tw["per_level"]
        assert len(per_level) == small_run.pq.analysis.config.T
        assert sum(r["passes"] for r in per_level) == tw["passes"]
        assert sum(r["drops"] for r in per_level) == tw["drops"]
        for row in per_level:
            assert row["collisions"] == row["passes"] + row["drops"]
            assert 0.0 <= row["collision_rate"] <= 1.0

    def test_json_round_trip(self, small_run, tmp_path):
        report = small_run.report()
        path = tmp_path / "report.json"
        report.save(path)
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()
        # The file itself is plain JSON.
        assert json.loads(path.read_text())["version"] == RunReport.VERSION

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(ValueError, match="version"):
            RunReport.load(path)

    def test_prometheus_exposition_of_report(self, small_run):
        text = small_run.report().to_prometheus()
        assert "# TYPE pq_tw_inserts_total counter" in text
        assert 'pq_tw_inserts_total{level="0"}' in text
        assert "pq_qm_pushes_total" in text
        assert "pq_packets_seen_total" in text

    def test_summary_mentions_config_and_counters(self, small_run):
        text = small_run.report().summary()
        assert small_run.pq.analysis.config.describe() in text
        assert "stale filter" in text
        assert "queue monitor" in text

    def test_poll_samples_are_monotonic(self, small_run):
        samples = small_run.report().section("samples")
        assert samples, "expected at least one poll-boundary sample"
        times = [s["time_ns"] for s in samples]
        assert times == sorted(times)
        seen = [s["counters"]["packets_seen"] for s in samples]
        assert seen == sorted(seen)


class TestEngineAndMetricsEquivalence:
    """The two guarantees the observability layer is built around."""

    KW = dict(duration_ns=2_500_000, load=1.3, seed=9)

    def test_scalar_and_batched_counters_identical(self):
        views = {}
        for engine in ("scalar", "fused"):
            run = simulate_workload(
                "ws", engine=engine, metrics=Metrics(), **self.KW
            )
            views[engine] = run.report().deterministic_view()
        assert views["scalar"] == views["fused"]

    def test_metrics_do_not_change_diagnosis(self):
        """A metrics-enabled run yields bit-identical results to a bare one."""
        run_on = simulate_workload("ws", metrics=Metrics(), **self.KW)
        run_off = simulate_workload("ws", **self.KW)

        victim = max(run_on.records, key=lambda r: r.queuing_delay)
        interval = QueryInterval.for_victim(
            victim.enq_timestamp, victim.deq_timestamp
        )
        result_on = run_on.pq.query(interval=interval)
        result_off = run_off.pq.query(interval=interval)
        assert result_on.estimate.as_dict() == result_off.estimate.as_dict()

        diag_on = Diagnoser(run_on.pq).diagnose_record(victim).summary(top=3)
        diag_off = Diagnoser(run_off.pq).diagnose_record(victim).summary(top=3)
        assert diag_on == diag_off

        # Structure counters agree too (samples only exist metrics-on).
        view_on = run_on.report().deterministic_view()
        view_off = run_off.report().deterministic_view()
        view_on.pop("samples")
        view_off.pop("samples")
        assert view_on == view_off

    def test_query_instrumentation_counts(self):
        run = simulate_workload("ws", metrics=Metrics(), **self.KW)
        victim = max(run.records, key=lambda r: r.queuing_delay)
        interval = QueryInterval.for_victim(
            victim.enq_timestamp, victim.deq_timestamp
        )
        run.pq.query(interval=interval)
        m = run.metrics
        assert (
            m.find("pq_queries_total", kind="time_windows", mode="async").value == 1
        )
        assert m.find("pq_queries_accepted_total").value == 1
        hist = m.find("pq_query_latency_ns", kind="time_windows")
        assert hist is not None and hist.count == 1

    def test_ingest_instrumentation_counts(self):
        run = simulate_workload("ws", metrics=Metrics(), **self.KW)
        m = run.metrics
        batches = m.find("pq_ingest_batches_total")
        sizes = m.find("pq_ingest_batch_events")
        assert batches is not None and batches.value > 0
        assert sizes is not None and sizes.count == batches.value
        # Every merged event lands in exactly one batch: 2 per record.
        assert sizes.sum == 2 * len(run.records)


class TestInstrumentConcurrency:
    """The service shares one registry across the ingest task and query
    handlers; increments from many threads must never lose updates."""

    def test_concurrent_increments_are_exact(self):
        import threading

        metrics = Metrics()
        threads_n, iters = 8, 2_000
        barrier = threading.Barrier(threads_n)

        def hammer(tid):
            barrier.wait()
            counter = metrics.counter("pq_service_requests_total")
            gauge = metrics.gauge("pq_service_queue_depth")
            hist = metrics.histogram("pq_service_latency_us")
            for i in range(iters):
                counter.inc()
                gauge.set_max(tid * iters + i)
                hist.observe(i + 1)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("pq_service_requests_total").value == threads_n * iters
        hist = metrics.histogram("pq_service_latency_us")
        assert hist.count == threads_n * iters
        assert hist.sum == threads_n * sum(range(1, iters + 1))
        assert metrics.gauge("pq_service_queue_depth").value == threads_n * iters - 1

    def test_instruments_survive_pickling(self):
        import pickle

        metrics = Metrics()
        metrics.counter("c").inc(3)
        metrics.histogram("h").observe(5)
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.counter("c").value == 3
        assert clone.histogram("h").count == 1
        clone.counter("c").inc()  # lock recreated: still usable
        assert clone.counter("c").value == 4
