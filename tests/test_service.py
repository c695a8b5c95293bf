"""Tests for the always-on diagnosis service (repro.service)."""

import asyncio
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import QueryInterval
from repro.errors import (
    ConfigError,
    IngestFailed,
    QueryError,
    ServiceDegradedRejection,
    ServiceOverloadError,
    ServiceError,
    ServiceShuttingDown,
)
from repro.experiments.runner import simulate_workload
from repro.obs.metrics import Metrics
from repro.service import (
    AdmissionController,
    DegradationController,
    DiagnosisService,
    IngestSupervisor,
    LiveIngest,
    ServiceConfig,
    ServiceHarness,
    SLOTargets,
    SLOTracker,
    Stage,
    TokenBucket,
)
from repro.service import protocol
from repro.service.client import ServiceClient

# ---------------------------------------------------------------------------
# admission control


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestAdmission:
    def test_token_bucket_rate_and_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0  # burst of 2
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.1)  # one token at 10/s
        clock.now += 0.1
        assert bucket.try_acquire() == 0.0  # refilled

    def test_disabled_bucket_always_admits(self):
        bucket = TokenBucket(rate_per_s=0.0)
        assert all(bucket.try_acquire() == 0.0 for _ in range(100))

    def test_queue_full_rejection_is_typed_with_hint(self):
        admission = AdmissionController(max_pending=2, metrics=Metrics())
        admission.admit(0)
        admission.admit(1)
        with pytest.raises(ServiceOverloadError) as excinfo:
            admission.admit(2)
        assert excinfo.value.retry_after_ms > 0
        assert admission.admitted == 2 and admission.rejected == 1

    def test_rate_rejection_hints_refill_time(self):
        clock = FakeClock()
        admission = AdmissionController(
            max_pending=100, rate_per_s=10.0, burst=1.0, clock=clock
        )
        admission.admit(0)
        with pytest.raises(ServiceOverloadError) as excinfo:
            admission.admit(0)
        assert excinfo.value.retry_after_ms == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# degradation state machine


class TestDegradation:
    def test_escalates_one_stage_per_observation(self):
        controller = DegradationController()
        # Massive overload: still only one stage per observation.
        assert controller.observe(1.0, 10_000.0) == Stage.BATCH_ONLY
        assert controller.observe(1.0, 10_000.0) == Stage.REDUCED
        assert controller.observe(1.0, 10_000.0) == Stage.REDUCED  # floor

    def test_recovery_needs_calm_hold(self):
        controller = DegradationController(calm_hold=3)
        controller.observe(1.0, 10_000.0)
        assert controller.stage == Stage.BATCH_ONLY
        controller.observe(0.0, 0.0)
        controller.observe(0.0, 0.0)
        assert controller.stage == Stage.BATCH_ONLY  # still holding
        controller.observe(0.0, 0.0)
        assert controller.stage == Stage.NORMAL

    def test_loud_sample_resets_the_hold(self):
        controller = DegradationController(calm_hold=2, recover_frac=0.5)
        controller.observe(1.0, 10_000.0)
        controller.observe(0.0, 0.0)
        # Above recover_frac * entry threshold: not calm, hold resets.
        controller.observe(0.4, 0.0)
        controller.observe(0.0, 0.0)
        assert controller.stage == Stage.BATCH_ONLY
        controller.observe(0.0, 0.0)
        assert controller.stage == Stage.NORMAL

    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0),
                st.floats(min_value=0.0, max_value=1000.0),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_never_skips_a_stage_and_always_recovers(self, samples):
        """The satellite property: (a) the stage index moves by at most
        one per observation in either direction; (b) sustained calm
        always walks the controller back to NORMAL."""
        controller = DegradationController(calm_hold=2)
        previous = controller.stage
        for queue_frac, p99_ms in samples:
            current = controller.observe(queue_frac, p99_ms)
            assert abs(int(current) - int(previous)) <= 1
            previous = current
        # (b) drop the load: recovery within calm_hold * stages samples.
        for _ in range(2 * len(Stage) + 2):
            previous = controller.observe(0.0, 0.0)
        assert controller.stage == Stage.NORMAL

    def test_transitions_are_recorded_in_order(self):
        controller = DegradationController(calm_hold=1)
        controller.observe(1.0, 0.0)
        controller.observe(1.0, 1_000.0)
        controller.observe(0.0, 0.0)
        assert controller.transitions == [
            (Stage.NORMAL, Stage.BATCH_ONLY),
            (Stage.BATCH_ONLY, Stage.REDUCED),
            (Stage.REDUCED, Stage.BATCH_ONLY),
        ]


# ---------------------------------------------------------------------------
# SLO tracking


class TestSLO:
    def test_percentiles_and_burn_rate(self):
        tracker = SLOTracker(SLOTargets(p99_ms=10.0, error_budget=0.1))
        for latency in range(1, 101):  # 1..100 ms; 90 within, 10 beyond
            tracker.observe(float(latency))
        assert tracker.percentile(0.5) == 50.0
        assert tracker.percentile(0.99) == 99.0
        assert tracker.violations == 90  # latencies 11..100 missed p99=10
        assert tracker.burn_rate == pytest.approx(9.0)  # 90% misses / 10% budget

    def test_errors_count_against_the_budget(self):
        tracker = SLOTracker(SLOTargets(p99_ms=1_000.0, error_budget=0.5))
        tracker.observe(1.0, ok=False)
        tracker.observe(1.0, ok=True)
        assert tracker.errors == 1 and tracker.violations == 1
        assert tracker.burn_rate == pytest.approx(1.0)

    def test_metrics_export(self):
        metrics = Metrics()
        tracker = SLOTracker(SLOTargets(), metrics=metrics)
        tracker.observe(2.0)
        assert metrics.counter("pq_service_requests_total").value == 1
        assert metrics.histogram("pq_service_latency_us").count == 1

    @given(
        window=st.integers(min_value=1, max_value=12),
        latencies=st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 2.5]),  # ties, evicted and re-added
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_incremental_window_matches_sorted(self, window, latencies):
        """The incrementally sorted window answers nearest-rank p50/p99
        bit for bit as sorting the last ``window`` samples would."""
        tracker = SLOTracker(SLOTargets(window=window))
        for i, latency in enumerate(latencies):
            tracker.observe(latency)
            ordered = sorted(latencies[max(0, i + 1 - window) : i + 1])
            for q in (0.5, 0.99):
                rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.999999) - 1))
                assert tracker.percentile(q).hex() == ordered[rank].hex()


# ---------------------------------------------------------------------------
# live ingest + supervisor


def _tiny_pipeline():
    from repro.engine.ingest import IngestPipeline
    from repro.experiments.runner import build_run

    _trace, records, _drops, pq = build_run("uw", 4_000_000, load=1.2, seed=7)
    return IngestPipeline(pq, records)


class TestLiveIngest:
    def test_phased_drive_drains(self):
        ingest = LiveIngest(_tiny_pipeline())
        while ingest.step_phase():
            pass
        assert ingest.status == "drained"
        assert ingest.events_ingested == 2 * len(ingest.pipeline.batch)
        assert ingest.chunks_ingested >= 1
        assert ingest.step_phase() is False  # idempotent after drain

    def test_a_step_takes_at_least_two_turns(self):
        """The monitor write-back and the window absorb of one step run in
        separate turns, so a query waits for one phase, not one step."""
        ingest = LiveIngest(_tiny_pipeline())
        pipeline = ingest.pipeline
        turns_per_step = []
        while True:
            steps, turns = pipeline.batches_processed, ingest.chunks_ingested
            events = ingest.events_ingested
            while ingest.step_phase() and ingest.events_ingested == events:
                pass
            if ingest.status == "drained":
                break
            assert pipeline.batches_processed == steps + 1
            turns_per_step.append(ingest.chunks_ingested - turns)
        assert len(turns_per_step) == pipeline.batches_processed > 1
        assert min(turns_per_step) >= 2
        # Polls are turns of their own too.
        assert max(turns_per_step) >= 3

    def test_live_drive_makes_the_offline_kernel_calls(self):
        """Offline run() and a phase-at-a-time live drive call the same
        kernels, with the same arguments, in the same order."""

        def record(pipeline):
            pq = pipeline.pq
            calls = []

            def spy(name, method, summary):
                def wrapper(*args):
                    calls.append((name,) + summary(*args))
                    return method(*args)

                return wrapper

            pq.write_back_batch = spy(
                "write_back",
                pq.write_back_batch,
                lambda e, f, d: (e.tobytes(), f.idx.tobytes(), d.tobytes()),
            )
            pq.absorb_batch = spy(
                "absorb", pq.absorb_batch, lambda f, t: (f.idx.tobytes(), t.tobytes())
            )
            pq._poll_if_due = spy("poll", pq._poll_if_due, lambda now: (now,))
            return calls

        offline = _tiny_pipeline()
        offline_calls = record(offline)
        offline.run()
        live = LiveIngest(_tiny_pipeline())
        live_calls = record(live.pipeline)
        while live.step_phase():
            pass
        assert live_calls == offline_calls
        assert {call[0] for call in offline_calls} == {"write_back", "absorb", "poll"}

    def test_freshness_is_published_by_drain(self):
        metrics = Metrics()
        ingest = LiveIngest(_tiny_pipeline(), metrics=metrics)
        assert ingest.freshness_ms is None
        while ingest.step_phase():
            pass
        assert ingest.freshness_ms is not None and ingest.freshness_ms > 0
        assert metrics.gauge("pq_service_freshness_ms").value == ingest.freshness_ms

    def test_freshness_costs_nothing_with_metrics_off(self, monkeypatch):
        import repro.service.ingest as ingest_module

        def no_clock():
            raise AssertionError("clock read with metrics off")

        monkeypatch.setattr(ingest_module, "perf_counter", no_clock)
        ingest = LiveIngest(_tiny_pipeline())
        while ingest.step_phase():
            pass
        assert ingest.status == "drained"
        assert ingest.freshness_ms is None

    def test_generator_crash_is_fail_stop(self):
        class Boom:
            def steps(self):
                yield 10
                raise RuntimeError("register bank on fire")

        ingest = LiveIngest(Boom())
        assert ingest.step_phase() is True
        with pytest.raises(IngestFailed):
            ingest.step_phase()
        assert ingest.status == "failed"
        assert ingest.events_ingested == 10
        assert ingest.step_phase() is False  # poisoned permanently

    def test_supervisor_restarts_chaos_crashes(self):
        crashes = {"left": 2}

        def chaos():
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise OSError("injected task crash")

        ingest = LiveIngest(_tiny_pipeline())
        supervisor = IngestSupervisor(
            ingest,
            max_restarts=3,
            backoff_base_s=0.001,
            metrics=Metrics(),
            chaos_hook=chaos,
        )
        asyncio.run(supervisor.run())
        assert supervisor.state == "drained"
        assert supervisor.restarts == 2
        assert ingest.status == "drained"

    def test_supervisor_gives_up_past_restart_budget(self):
        def chaos():
            raise OSError("injected task crash")

        ingest = LiveIngest(_tiny_pipeline())
        supervisor = IngestSupervisor(
            ingest, max_restarts=2, backoff_base_s=0.001, chaos_hook=chaos
        )
        with pytest.raises(IngestFailed):
            asyncio.run(supervisor.run())
        assert supervisor.state == "failed"
        assert supervisor.restarts == 2

    def test_backoff_is_bounded_exponential(self):
        ingest = LiveIngest(_tiny_pipeline())
        supervisor = IngestSupervisor(
            ingest, max_restarts=10, backoff_base_s=0.1, backoff_cap_s=0.5
        )
        delays = []
        for restarts in range(5):
            supervisor.restarts = restarts
            delays.append(supervisor.next_backoff_s())
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


# ---------------------------------------------------------------------------
# protocol round-trips


class TestProtocol:
    def test_encode_decode_round_trip(self):
        payload = {"id": 3, "op": "query", "args": {"start_ns": 1, "end_ns": 2}}
        assert protocol.decode(protocol.encode(payload)) == payload

    def test_malformed_line_is_typed(self):
        with pytest.raises(QueryError):
            protocol.decode(b"{nope\n")
        with pytest.raises(QueryError):
            protocol.decode(b"[1,2]\n")

    @settings(max_examples=200, deadline=None)
    @given(
        line=st.one_of(
            st.binary(max_size=64),
            # deep nesting and over-long integers, which random bytes
            # never reach
            st.builds(
                lambda unit, n: unit * n,
                st.sampled_from([b"[", b'{"a":', b"1"]),
                st.integers(min_value=1, max_value=6000),
            ),
        )
    )
    def test_any_bytes_decode_to_a_dict_or_a_typed_error(self, line):
        try:
            payload = protocol.decode(line)
        except QueryError:
            return
        assert isinstance(payload, dict)

    @pytest.mark.parametrize(
        "exc",
        [
            ServiceOverloadError("full", retry_after_ms=12.5),
            ServiceDegradedRejection("shed", stage="REDUCED", retry_after_ms=3.0),
            ServiceShuttingDown("draining"),
            QueryError("bad interval"),
            IngestFailed("dead"),
        ],
    )
    def test_errors_round_trip_typed(self, exc):
        with pytest.raises(type(exc)) as excinfo:
            protocol.raise_error(protocol.error_payload(exc))
        raised = excinfo.value
        assert str(raised) == str(exc)
        if isinstance(exc, ServiceOverloadError):
            assert raised.retry_after_ms == exc.retry_after_ms
        if isinstance(exc, ServiceDegradedRejection):
            assert raised.stage == exc.stage


# ---------------------------------------------------------------------------
# the service end to end (in-process harness)

SERVICE_DURATION_NS = 12_000_000


def _service_config(**overrides):
    defaults = dict(
        workload="ws",
        duration_ns=SERVICE_DURATION_NS,
        load=1.2,
        seed=3,
        engine="fused",
        max_pending=16,
        calm_hold=2,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _wait_first_snapshot(client, timeout_s=60.0):
    """Wait until the service has a snapshot to answer from: ingest
    publishes its first one a few phases after the socket is bound."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if client.status()["snapshots"] >= 1:
            return
        time.sleep(0.005)
    raise AssertionError("no snapshot was published in time")


def _wait_drained(client, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = client.status()
        if status["ingest"]["status"] in ("drained", "failed"):
            return status
        time.sleep(0.02)
    raise AssertionError("ingest did not drain in time")


class TestServiceEndToEnd:
    def test_live_serving_matches_offline_run(self):
        """The tentpole equivalence: a query against the live service,
        after ingest drains, is numerically identical to the same query
        against an offline run of the same (workload, seed, config)."""
        offline = simulate_workload(
            "ws", SERVICE_DURATION_NS, load=1.2, seed=3, engine="fused"
        )
        end = offline.records[-1].deq_timestamp
        interval = QueryInterval(end - 2_000_000, end)
        expected = offline.pq.query(interval=interval)
        with ServiceHarness(config=_service_config()) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                assert client.ping()
                _wait_drained(client)
                answer = client.query(interval.start_ns, interval.end_ns)
        assert answer["stage"] == "NORMAL"
        assert answer["degraded"] is False
        expected_map = {str(f): v for f, v in expected.estimate.items()}
        assert answer["estimate"] == pytest.approx(expected_map)
        assert len(answer["estimate"]) > 0
        assert harness.service.state == "stopped"

    def test_live_serving_matches_offline_run_under_faults(self):
        """Live == offline holds under fault injection too: the drained
        service port reports the same deterministic state as an offline
        run with the same fault profile, and answers the same batch."""
        from repro.core.config import PrintQueueConfig
        from repro.obs.report import RunReport

        # A fast poll cadence, so chaos has many reads to fault.
        pq_config = PrintQueueConfig(m0=8, k=8, alpha=1, T=3)
        offline = simulate_workload(
            "ws",
            SERVICE_DURATION_NS,
            load=1.2,
            config=pq_config,
            seed=3,
            metrics=Metrics(),
            faults="chaos",
        )
        end = offline.records[-1].deq_timestamp
        intervals = [
            QueryInterval(end - span, end) for span in (500_000, 2_000_000)
        ]
        expected = offline.pq.query(intervals=intervals).estimates
        config = _service_config(faults="chaos", pq_config=pq_config)
        with ServiceHarness(config=config) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                _wait_drained(client)
                answer = client.query(intervals[1].start_ns, end)
        live = harness.service.pq
        assert sum(live.faults.injected.values()) > 0
        assert (
            RunReport.from_port(live).deterministic_view()
            == RunReport.from_port(offline.pq).deterministic_view()
        )
        got = live.query(intervals=intervals).estimates
        assert [list(e.items()) for e in got] == [list(e.items()) for e in expected]
        expected_map = {str(f): v for f, v in expected[1].items()}
        assert answer["estimate"] == pytest.approx(expected_map)

    def test_overload_gets_typed_rejection_with_retry_hint(self):
        config = _service_config(rate_limit_qps=0.001, burst=1.0)
        with ServiceHarness(config=config) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                _wait_drained(client)
                end = SERVICE_DURATION_NS
                client.query(end - 1_000_000, end)  # burst token
                with pytest.raises(ServiceOverloadError) as excinfo:
                    client.query(end - 1_000_000, end)
                assert excinfo.value.retry_after_ms > 0
        assert harness.service.admission.rejected >= 1

    def test_degraded_stage_always_flags_answers(self):
        """Satellite property, part 3: while the service sits in a
        degraded stage, every answer it returns is flagged degraded."""
        with ServiceHarness(config=_service_config()) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                _wait_drained(client)
                harness.service.degrade.stage = Stage.REDUCED
                # Freeze the stage: recovery hysteresis would otherwise
                # step back down between queries (which is correct —
                # this test pins behaviour *while* degraded).
                harness.service.degrade.calm_hold = 10**9
                end = SERVICE_DURATION_NS
                for span in (500_000, 1_000_000, 4_000_000):
                    answer = client.query(end - span, end)
                    assert answer["stage"] == "REDUCED"
                    assert answer["degraded"] is True
                    assert "coverage" in answer

    def test_reduced_stage_reports_truncated_coverage(self):
        # Fast poll cadence (small m0/k) so the run holds many periodic
        # snapshots, then keep only the newest one: the reduced plan's
        # horizon is visibly shorter than the full history.
        from repro.core.config import PrintQueueConfig

        with ServiceHarness(
            config=_service_config(
                reduced_keep_snapshots=1,
                pq_config=PrintQueueConfig(m0=8, k=10, alpha=1, T=3),
            )
        ) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                _wait_drained(client)
                harness.service.degrade.stage = Stage.REDUCED
                harness.service.degrade.calm_hold = 10**9
                # An interval reaching back to t=1 must report the
                # pre-cutoff history as lost.
                answer = client.query(1, SERVICE_DURATION_NS)
                assert answer["degraded"] is True
                assert answer["lost_ns"], "expected truncated history"
                (start, _end) = answer["lost_ns"][0]
                assert start == 1

    def test_batch_only_stage_matches_normal_numbers(self):
        offline = simulate_workload(
            "ws", SERVICE_DURATION_NS, load=1.2, seed=3, engine="fused"
        )
        end = offline.records[-1].deq_timestamp
        interval = QueryInterval(end - 2_000_000, end)
        expected = offline.pq.query(interval=interval)
        with ServiceHarness(config=_service_config()) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                _wait_drained(client)
                harness.service.degrade.stage = Stage.BATCH_ONLY
                harness.service.degrade.calm_hold = 10**9
                answer = client.query(interval.start_ns, interval.end_ns)
        assert answer["stage"] == "BATCH_ONLY"
        assert answer["degraded"] is False  # exact, just cheaper
        expected_map = {str(f): v for f, v in expected.estimate.items()}
        assert answer["estimate"] == pytest.approx(expected_map)

    def test_service_under_faults_serves_with_zero_crashes(self):
        config = _service_config(faults="chaos")
        with ServiceHarness(config=config) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                status = _wait_drained(client)
                assert status["ingest"]["status"] == "drained"
                assert status["faults"] == "chaos"
                end = SERVICE_DURATION_NS
                answer = client.query(end - 2_000_000, end)
                assert "estimate" in answer
        assert harness.service.state == "stopped"

    def test_chaos_hook_restarts_are_supervised(self):
        crashes = {"left": 1}

        def chaos():
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise OSError("injected ingest-task crash")

        config = _service_config(backoff_base_s=0.001)
        harness = ServiceHarness(config=config, chaos_hook=chaos)
        try:
            host, port = harness.start()
            with ServiceClient(host, port) as client:
                status = _wait_drained(client)
                assert status["ingest"]["restarts"] == 1
                assert status["ingest"]["status"] == "drained"
        finally:
            harness.stop()

    def test_draining_service_rejects_new_requests(self):
        service = DiagnosisService(config=_service_config())
        service._draining = True

        async def _probe():
            return await service._handle_line(
                protocol.encode({"id": 1, "op": "ping"})
            )

        response = asyncio.run(_probe())
        assert response["ok"] is False
        assert response["error"]["type"] == "ServiceShuttingDown"

    def test_unsupported_engine_is_rejected_before_anything_is_built(self):
        service = DiagnosisService(_service_config(engine="scalar"))
        with pytest.raises(ConfigError, match="scalar"):
            service._build()
        # Validation comes first: no trace generated, no port wired.
        assert service.pq is None and service.ingest is None

    def test_unknown_op_is_typed_error(self):
        with ServiceHarness(config=_service_config()) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                with pytest.raises(QueryError):
                    client.request("explode")

    def test_over_limit_line_is_typed_error_and_service_survives(self):
        # readline() raises ValueError past the 64 KiB StreamReader limit;
        # that must surface as a typed payload, not a dead handler task.
        with ServiceHarness(config=_service_config()) as harness:
            host, port = harness.service.address
            with socket.create_connection((host, port), timeout=30.0) as sock:
                sock.sendall(b"x" * (70 * 1024) + b"\n")
                with sock.makefile("rb") as replies:
                    response = protocol.decode(replies.readline())
                    assert replies.readline() == b""  # connection dropped
            assert response["ok"] is False
            assert response["error"]["type"] == "QueryError"
            assert "too long" in response["error"]["message"]
            with ServiceClient(host, port) as client:
                assert client.ping() is True

    def test_nested_line_is_typed_error_and_connection_survives(self):
        # json.loads raises RecursionError on a line nested this deep.
        with ServiceHarness(config=_service_config()) as harness:
            host, port = harness.service.address
            with socket.create_connection((host, port), timeout=10.0) as sock:
                ping = protocol.encode({"op": "ping", "id": 2})
                sock.sendall(b"[" * 2001 + b"\n" + ping)
                with sock.makefile("rb") as replies:
                    nested = protocol.decode(replies.readline())
                    pong = protocol.decode(replies.readline())
            assert nested["ok"] is False
            assert nested["error"]["type"] == "QueryError"
            assert pong == {"id": 2, "ok": True, "result": {"pong": True}}

    def test_overflowing_interval_is_typed_and_worker_survives(self):
        # JSON reads 1e400 as inf, and int(inf) raises OverflowError.
        with ServiceHarness(config=_service_config()) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                _wait_first_snapshot(client)
            with socket.create_connection((host, port), timeout=10.0) as sock:
                hostile_line = '{"op":"query","id":1,"args":{"start_ns":1e400,"end_ns":1}}'
                valid_line = protocol.encode(
                    {"op": "query", "id": 2, "args": {"start_ns": 0, "end_ns": 1}}
                )
                sock.sendall(hostile_line.encode() + b"\n" + valid_line)
                with sock.makefile("rb") as replies:
                    hostile = protocol.decode(replies.readline())
                    valid = protocol.decode(replies.readline())
            assert hostile["id"] == 1 and hostile["ok"] is False
            assert hostile["error"]["type"] == "QueryError"
            assert valid["id"] == 2 and valid["ok"] is True
            assert not harness.service._worker_task.done()

    def test_unexpected_execute_error_is_typed_and_worker_survives(self, monkeypatch):
        with ServiceHarness(config=_service_config()) as harness:
            service = harness.service
            execute = service._execute
            calls = []

            def flaky(request):
                calls.append(request)
                if len(calls) == 1:
                    raise ZeroDivisionError("boom")
                return execute(request)

            monkeypatch.setattr(service, "_execute", flaky)
            host, port = service.address
            with ServiceClient(host, port, timeout_s=10.0) as client:
                _wait_first_snapshot(client)
                with pytest.raises(ServiceError, match="ZeroDivisionError"):
                    client.query(0, SERVICE_DURATION_NS)
                assert "estimate" in client.query(0, SERVICE_DURATION_NS)
            assert not service._worker_task.done()

    def test_slo_section_populated_after_queries(self):
        with ServiceHarness(config=_service_config()) as harness:
            host, port = harness.service.address
            with ServiceClient(host, port) as client:
                _wait_drained(client)
                end = SERVICE_DURATION_NS
                for _ in range(5):
                    client.query(end - 1_000_000, end)
                status = client.status()
        slo = status["slo"]
        assert slo["total"] >= 5
        assert slo["p99_ms"] > 0
        metrics = harness.service.metrics
        assert metrics.counter("pq_service_requests_total").value >= 5


# ---------------------------------------------------------------------------
# scheduling contract: queries before phases (no timing assertions)


def _fast_poll_config(**overrides):
    # Fast polls: ~75 poll-aligned steps a run, three phases each, so
    # plenty of requests land while ingest is running.
    from repro.core.config import PrintQueueConfig

    return _service_config(
        pq_config=PrintQueueConfig(m0=8, k=10, alpha=1, T=3), **overrides
    )


def _serve(config, client):
    """Run ``await client(service, host, port)`` against a live service on
    this thread's loop, then shut the service down."""

    async def main():
        service = DiagnosisService(config=config)
        host, port = await service.start()
        try:
            # A hang guard, not a timing assertion: a starved ingest
            # never drains and fails the test here.
            return await asyncio.wait_for(client(service, host, port), 120.0)
        finally:
            await service.shutdown()

    return asyncio.run(main())


async def _closed_loop(service, host, port, answers):
    """One connection asking until ingest stops running; the answers it got."""
    reader, writer = await asyncio.open_connection(host, port)
    end = SERVICE_DURATION_NS
    while service.ingest.status in ("idle", "running"):
        writer.write(
            protocol.encode(
                {"op": "query", "args": {"start_ns": end - 1_000_000, "end_ns": end}}
            )
        )
        await writer.drain()
        answers.append(protocol.decode(await reader.readline()))
    writer.close()
    await writer.wait_closed()


class TestSchedulingContract:
    def test_no_chunk_between_admission_and_response(self):
        """While ingest runs, a query is read, admitted, executed and its
        response handed to the transport with no ingest chunk in between."""
        windows = []
        answers = []

        async def client(service, host, port):
            handle_line = service._handle_line

            async def probed(line):
                # Admission happens inside handle_line before its first
                # await; the response is written as soon as it returns.
                running = service.ingest.status == "running"
                before = service.ingest.chunks_ingested
                response = await handle_line(line)
                windows.append((running, before, service.ingest.chunks_ingested))
                return response

            service._handle_line = probed
            await _closed_loop(service, host, port, answers)
            return service.status()

        status = _serve(_fast_poll_config(), client)
        live = [(before, after) for running, before, after in windows if running]
        assert len(live) >= 3, windows
        assert all(before == after for before, after in live), live
        assert status["ingest"]["status"] == "drained"
        assert len(answers) == len(windows)

    def test_flood_cannot_starve_ingest(self):
        """Eight closed-loop connections keep queries admitted at every
        chunk boundary; ingest still drains, and freshness is published."""
        answers = []

        async def client(service, host, port):
            await asyncio.gather(
                *(_closed_loop(service, host, port, answers) for _ in range(8))
            )
            return service.status()

        config = _fast_poll_config()
        status = _serve(config, client)
        assert status["ingest"]["status"] == "drained"
        assert status["ingest"]["events"] > 0
        assert status["ingest"]["freshness_ms"] > 0
        assert status["queue_depth"] <= config.max_pending
        assert sum(answer["ok"] for answer in answers) > 0


# ---------------------------------------------------------------------------
# slow and half-closed clients during live ingest


async def _slow_client(service, host, port, answers):
    """Send whole queries one byte per loop turn until ingest stops."""
    reader, writer = await asyncio.open_connection(host, port)
    end = SERVICE_DURATION_NS
    line = protocol.encode(
        {"op": "query", "args": {"start_ns": end - 1_000_000, "end_ns": end}}
    )
    while not service.status()["snapshots"]:
        await asyncio.sleep(0)
    while service.ingest.status in ("idle", "running"):
        for i in range(len(line)):
            writer.write(line[i : i + 1])
            await writer.drain()
            await asyncio.sleep(0)
        answers.append(protocol.decode(await reader.readline()))
    writer.close()
    await writer.wait_closed()


async def _half_closed_client(host, port):
    """Send half a request line, shut the write side, read to EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    line = protocol.encode({"op": "query", "args": {"start_ns": 0, "end_ns": 10}})
    writer.write(line[: len(line) // 2])
    await writer.drain()
    writer.write_eof()
    replies = []
    while True:
        reply = await reader.readline()
        if not reply:
            break
        replies.append(protocol.decode(reply))
    writer.close()
    await writer.wait_closed()
    return replies


class TestSlowAndHalfClosedClients:
    def test_service_survives_and_answers_like_in_process(self):
        """A byte-at-a-time client and a half-closed one ride along with
        live ingest: nothing crashes, ingest drains, and a third
        connection's answers equal the in-process port's."""
        unhandled = []
        slow_answers = []
        intervals = [
            QueryInterval(SERVICE_DURATION_NS - span, SERVICE_DURATION_NS)
            for span in (300_000, 1_000_000, 4_000_000)
        ] + [QueryInterval(1, SERVICE_DURATION_NS // 2)]

        async def client(service, host, port):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            slow = asyncio.create_task(
                _slow_client(service, host, port, slow_answers)
            )
            half = await _half_closed_client(host, port)
            half_during_ingest = service.ingest.status == "running"
            await slow
            status = service.status()
            reader, writer = await asyncio.open_connection(host, port)
            wire = []
            for iv in intervals:
                writer.write(
                    protocol.encode(
                        {
                            "op": "query",
                            "args": {"start_ns": iv.start_ns, "end_ns": iv.end_ns},
                        }
                    )
                )
                await writer.drain()
                wire.append(protocol.decode(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            local = [service.pq.query(interval=iv) for iv in intervals]
            worker_done = service._worker_task.done()
            return status, half, half_during_ingest, wire, local, worker_done

        status, half, half_during_ingest, wire, local, worker_done = _serve(
            _fast_poll_config(), client
        )
        assert half_during_ingest
        assert unhandled == []
        assert not worker_done
        assert status["ingest"]["status"] == "drained"
        assert status["ingest"]["supervisor"] == "drained"
        # The half line is answered with a typed error, or not at all.
        assert all(
            reply["ok"] is False and reply["error"]["type"] == "QueryError"
            for reply in half
        )
        assert slow_answers and all(answer["ok"] for answer in slow_answers)
        assert all(answer["ok"] for answer in wire)
        assert [answer["result"]["estimate"] for answer in wire] == [
            {str(flow): value for flow, value in result.estimate.items()}
            for result in local
        ]
        assert any(answer["result"]["estimate"] for answer in wire)
