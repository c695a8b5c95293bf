"""The always-on diagnosis service: live ingest + concurrent serving.

:class:`DiagnosisService` owns one :class:`~repro.core.printqueue.PrintQueuePort`
being fed live by a supervised ingest task (one
:class:`~repro.engine.ingest.IngestPipeline` kernel phase per turn) while query
requests arrive over a local JSON-lines socket.  The request path:

    connection handler → admission (bounded queue + token bucket)
                       → bounded ``asyncio.Queue``
                       → single worker task → port query → response

Ingest and serving share one event loop, and **queries come before
phases**: between ingest phases (a poll, a queue-monitor write-back, a
window absorb) ingest first lets the loop read the request lines that
arrived meanwhile, then waits until every query admitted so far has been
answered (its response handed to the transport).  A live request
therefore waits for the phase in progress when it arrived and then takes
its loop hops — read, worker, write — with no phase between them,
instead of waiting behind one phase per hop.  The barrier covers only
queries admitted before it began, so a flood delays a phase by at most
``max_pending`` executions and cannot starve ingest;
``status()["ingest"]["freshness_ms"]`` (gauge
``pq_service_freshness_ms``) is the publication lag that would show it
if it did.

Degradation stages change *how* a query is answered, never whether the
answer is honest:

* ``NORMAL`` and ``BATCH_ONLY`` — ``pq.query(interval=...)``, which is
  the compiled columnar plan over every periodic snapshot.  The two
  rungs answer identically; ``BATCH_ONLY`` only announces, in the wire
  ``stage`` field, that the ladder has left ``NORMAL``.  (The serving
  tier answers async interval queries only, whatever the stage.)
* ``REDUCED`` — the same plan over only the newest K periodic
  snapshots; the truncated history is reported per answer as a
  :class:`~repro.faults.CoverageReport` and the answer is flagged
  ``degraded`` — never a silent wrong answer.

:class:`ServiceHarness` runs the whole service on a daemon thread's
event loop, which is how the tests and the load driver embed it.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.config import PrintQueueConfig
from repro.core.printqueue import PrintQueuePort, QueryResult
from repro.core.queries import QueryInterval
from repro.errors import (
    ConfigError,
    QueryError,
    ReproError,
    ServiceDegradedRejection,
    ServiceError,
    ServiceShuttingDown,
)
from repro.faults.resilience import CoverageReport
from repro.obs.metrics import Metrics
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.degrade import DegradationController, Stage, StageThreshold
from repro.service.ingest import IngestSupervisor, LiveIngest
from repro.service.slo import SLOTargets, SLOTracker
from repro.store.memory import MemoryStore


@dataclass
class ServiceConfig:
    """Everything one service instance needs, with serve-ready defaults."""

    # -- the live workload: build_run's arguments, read only by _build ----
    workload: str = "ws"
    duration_ns: int = 50_000_000
    load: float = 1.2
    seed: int = 1
    #: the live ingest path; the service runs the production pipeline only.
    engine: str = "fused"
    #: a fault-profile name, FaultPlan, or injector (see repro.faults).
    faults: Optional[object] = None
    pq_config: Optional[PrintQueueConfig] = None

    # -- front door -------------------------------------------------------
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    max_pending: int = 64
    rate_limit_qps: float = 0.0  # <= 0 disables rate limiting
    burst: Optional[float] = None

    # -- degradation / SLO ------------------------------------------------
    slo: SLOTargets = field(default_factory=SLOTargets)
    thresholds: Optional[Dict[Stage, StageThreshold]] = None
    recover_frac: float = 0.5
    calm_hold: int = 3
    reduced_keep_snapshots: int = 4

    # -- supervision / shutdown ------------------------------------------
    max_restarts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    drain_deadline_s: float = 5.0


class _AnsweredBarrier:
    """Ingest's pre-phase wait: every query admitted so far is answered.

    The service counts a query admitted after it is enqueued and answered
    once its future settles — result, error or cancellation — in the
    connection handler, which writes the response in the same loop step.
    :meth:`wait` captures the admitted count when called and returns once
    the answered count reaches it; queries admitted later do not extend it.
    """

    def __init__(self) -> None:
        self.admitted = 0
        self.answered = 0
        self._waiter: Optional[Tuple[int, "asyncio.Future[None]"]] = None

    def admit(self) -> None:
        self.admitted += 1

    def answer(self) -> None:
        self.answered += 1
        waiter = self._waiter
        if waiter is not None and self.answered >= waiter[0]:
            self._waiter = None
            if not waiter[1].done():
                waiter[1].set_result(None)

    async def wait(self) -> None:
        if self.answered >= self.admitted:
            return
        future: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
        self._waiter = (self.admitted, future)
        await future


class DiagnosisService:
    """One port, one supervised ingest task, one query front door."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[Metrics] = None,
        chaos_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or Metrics()
        self.chaos_hook = chaos_hook
        self.slo = SLOTracker(self.config.slo, metrics=self.metrics)
        self.admission = AdmissionController(
            self.config.max_pending,
            rate_per_s=self.config.rate_limit_qps,
            burst=self.config.burst,
            metrics=self.metrics,
        )
        self.degrade = DegradationController(
            thresholds=self.config.thresholds,
            recover_frac=self.config.recover_frac,
            calm_hold=self.config.calm_hold,
            metrics=self.metrics,
        )
        self.pq: Optional[PrintQueuePort] = None
        self.store = MemoryStore()
        self.supervisor: Optional[IngestSupervisor] = None
        self.ingest: Optional[LiveIngest] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: Optional["asyncio.Queue[Tuple[Dict[str, Any], float, asyncio.Future]]"] = None
        self._worker_task: Optional[asyncio.Task] = None
        self._ingest_task: Optional[asyncio.Task] = None
        self._barrier = _AnsweredBarrier()
        self._draining = False
        self.state = "idle"  # idle → serving → draining → stopped

    # -- build -------------------------------------------------------------

    def _build(self) -> None:
        """Build the live pipeline and wire up ingest + supervisor.

        The port comes from :func:`repro.experiments.runner.build_run`,
        the same call an offline run makes, so a service run's snapshots
        are those of an offline run of the same (workload, seed, config)
        — the service adds a *drive cadence*, not new math.
        """
        from repro.engine.ingest import IngestPipeline
        from repro.experiments.runner import build_run

        cfg = self.config
        if cfg.engine != "fused":
            raise ConfigError(f"unsupported service engine {cfg.engine!r}")
        _trace, records, _drops, self.pq = build_run(
            cfg.workload,
            cfg.duration_ns,
            cfg.load,
            cfg.pq_config,
            cfg.seed,
            metrics=self.metrics,
            faults=cfg.faults,
            store=self.store,
        )
        self.ingest = LiveIngest(IngestPipeline(self.pq, records), metrics=self.metrics)
        self.supervisor = IngestSupervisor(
            self.ingest,
            max_restarts=cfg.max_restarts,
            backoff_base_s=cfg.backoff_base_s,
            backoff_cap_s=cfg.backoff_cap_s,
            metrics=self.metrics,
            chaos_hook=self.chaos_hook,
            before_phase=self._barrier.wait,
        )

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Build, bind, and start serving; returns the bound address."""
        if self.pq is None:
            self._build()
        assert self.supervisor is not None
        self._queue = asyncio.Queue(maxsize=self.config.max_pending)
        self._worker_task = asyncio.create_task(self._worker(), name="pq-worker")
        self._ingest_task = asyncio.create_task(
            self.supervisor.run(), name="pq-ingest"
        )
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        self.state = "serving"
        return host, port

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise ServiceShuttingDown("service is not serving")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def shutdown(self) -> None:
        """Graceful stop: reject new work, drain in-flight, flush, close."""
        if self.state in ("stopped", "idle"):
            self.state = "stopped"
            return
        self.state = "draining"
        self._draining = True
        if self.supervisor is not None:
            self.supervisor.stop()
        if self._server is not None:
            self._server.close()
        # Drain in-flight queries against the configured deadline; past
        # it, whatever is still queued gets cancelled rather than holding
        # the process hostage.
        if self._queue is not None:
            try:
                await asyncio.wait_for(
                    self._queue.join(), timeout=self.config.drain_deadline_s
                )
            except asyncio.TimeoutError:
                pass
        for task in (self._worker_task, self._ingest_task):
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, ReproError):
                    pass
        if self._server is not None:
            await self._server.wait_closed()
        # Flush: a store backend with buffered state persists it here.
        self.store.close()
        self.state = "stopped"

    # -- request path --------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # Past the StreamReader limit the framing is lost:
                    # answer once, typed, and drop the connection.
                    error = QueryError(f"request line too long: {exc}")
                    writer.write(
                        protocol.encode(
                            {"ok": False, "error": protocol.error_payload(error)}
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                writer.write(protocol.encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        request_id: Any = None
        try:
            request = protocol.decode(line)
            request_id = request.get("id")
            if self._draining:
                raise ServiceShuttingDown("service is draining")
            op = request.get("op")
            if op == "ping":
                result: Any = {"pong": True}
            elif op == "status":
                result = self.status()
            elif op == "query":
                result = await self._enqueue_query(request)
            else:
                raise QueryError(f"unknown op {op!r}")
            payload: Dict[str, Any] = {"ok": True, "result": result}
        except ReproError as exc:
            payload = {"ok": False, "error": protocol.error_payload(exc)}
        if request_id is not None:
            payload["id"] = request_id
        return payload

    async def _enqueue_query(self, request: Dict[str, Any]) -> Any:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        # admit() + put_nowait run without an intervening await, so the
        # depth check and the enqueue are atomic on the event loop.
        self.admission.admit(self._queue.qsize())
        future: asyncio.Future = loop.create_future()
        self._queue.put_nowait((request, loop.time(), future))
        self._barrier.admit()
        if self.metrics is not None:
            self.metrics.gauge("pq_service_queue_depth").set_max(
                self._queue.qsize()
            )
        try:
            return await future
        finally:
            # No await stands between here and _handle_conn's write, so
            # ingest's next phase starts after the response is handed over.
            self._barrier.answer()

    async def _worker(self) -> None:
        """The single consumer of the bounded request queue."""
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            request, enqueued_at, future = await self._queue.get()
            ok = True
            try:
                result = self._execute(request)
                if not future.cancelled():
                    future.set_result(result)
            except Exception as exc:
                # A request must never take the only worker down with it.
                ok = False
                if not isinstance(exc, ReproError):
                    error = ServiceError(f"query failed: {exc!r}")
                    error.__cause__ = exc
                    exc = error
                if not future.cancelled():
                    future.set_exception(exc)
            finally:
                latency_ms = (loop.time() - enqueued_at) * 1000.0
                self.slo.observe(latency_ms, ok=ok)
                self.degrade.observe(
                    queue_frac=self._queue.qsize() / self.config.max_pending,
                    p99_ms=self.slo.percentile(0.99),
                )
                self._queue.task_done()
            # One yield per request: the handler whose future just settled
            # writes its answer before the next queued query executes.
            await asyncio.sleep(0)

    # -- query execution -----------------------------------------------------

    def _interval_from(self, request: Dict[str, Any]) -> QueryInterval:
        args = request.get("args") or {}
        try:
            return QueryInterval(int(args["start_ns"]), int(args["end_ns"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise QueryError(f"query needs integer start_ns/end_ns args: {exc!r}")

    def _execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self.pq is not None
        interval = self._interval_from(request)
        stage = self.degrade.stage
        args = request.get("args") or {}
        if args.get("mode", "async") != "async":
            # On-demand data-plane reads mutate register banks; the
            # serving tier answers from snapshots only.
            raise ServiceDegradedRejection(
                "the service answers async (snapshot) queries only",
                stage=stage.name,
            )
        if stage == Stage.REDUCED:
            estimate, coverage = self._reduced_answer(interval)
            degraded = True
        else:  # NORMAL and BATCH_ONLY: one kernel, the compiled plan
            result = self.pq.query(interval=interval)
            assert isinstance(result, QueryResult)
            estimate, degraded, coverage = result.estimate, result.degraded, result.coverage
        response: Dict[str, Any] = {
            "stage": stage.name,
            "degraded": bool(degraded),
            "estimate": {str(flow): value for flow, value in estimate.items()},
        }
        if coverage is not None:
            response["coverage"] = coverage.describe()
            response["lost_ns"] = [list(r) for r in coverage.lost_ns]
        return response

    def _reduced_answer(self, interval: QueryInterval):
        """Answer over only the newest K periodic snapshots, with honest
        coverage: history older than the kept snapshots is reported lost."""
        assert self.pq is not None
        analysis = self.pq.analysis
        keep_n = max(1, self.config.reduced_keep_snapshots)
        snaps = [s for s in analysis.tw_snapshots if s.source == "periodic"]
        keep = snaps[-keep_n:]
        estimate = analysis.query_time_windows(interval, snapshots=keep)
        cutoff = min(s.valid_from_ns for s in keep)
        lost = []
        if interval.start_ns < cutoff:
            lost.append((interval.start_ns, min(interval.end_ns, cutoff)))
        # Fold in fault-injection loss overlapping the interval (none on a
        # fault-free port), so a faulted REDUCED answer names both kinds
        # of blindness.
        fault_cov = self.pq.poller.log.coverage_for(
            interval.start_ns, interval.end_ns
        )
        coverage = CoverageReport(
            interval=(interval.start_ns, interval.end_ns),
            lost_ns=tuple(lost) + fault_cov.lost_ns,
            quarantined=fault_cov.quarantined,
            qm_lost_ns=fault_cov.qm_lost_ns,
        )
        return estimate, coverage

    # -- introspection ---------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        queue_depth = self._queue.qsize() if self._queue is not None else 0
        ingest = self.ingest
        supervisor = self.supervisor
        return {
            "state": self.state,
            "stage": self.degrade.stage.name,
            "queue_depth": queue_depth,
            "max_pending": self.config.max_pending,
            "admitted": self.admission.admitted,
            "rejected": self.admission.rejected,
            "ingest": {
                "status": ingest.status if ingest is not None else "idle",
                "events": ingest.events_ingested if ingest is not None else 0,
                "chunks": ingest.chunks_ingested if ingest is not None else 0,
                "freshness_ms": ingest.freshness_ms if ingest is not None else None,
                "supervisor": supervisor.state if supervisor is not None else "idle",
                "restarts": supervisor.restarts if supervisor is not None else 0,
            },
            "snapshots": len(self.store.tw_view()),
            "faults": (
                self.pq.faults.plan.name
                if self.pq is not None and self.pq.faults.plan.enabled
                else None
            ),
            "slo": self.slo.snapshot(),
        }


class ServiceHarness:
    """Run a :class:`DiagnosisService` on a daemon thread's event loop.

    The embedding surface for tests and the load driver: ``start()``
    blocks until the socket is bound and returns ``(host, port)``;
    ``stop()`` runs the graceful shutdown on the service loop and joins
    the thread.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[Metrics] = None,
        chaos_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        self.service = DiagnosisService(
            config=config, metrics=metrics, chaos_hook=chaos_hook
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._address = loop.run_until_complete(self.service.start())
        except BaseException as exc:  # surfaced to start()'s caller
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def start(self, timeout_s: float = 30.0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._run, name="pq-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise TimeoutError("service failed to start within the timeout")
        if self._startup_error is not None:
            raise self._startup_error
        assert self._address is not None
        return self._address

    def stop(self, timeout_s: float = 30.0) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        done = asyncio.run_coroutine_threadsafe(self.service.shutdown(), loop)
        try:
            done.result(timeout=timeout_s)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=timeout_s)

    def __enter__(self) -> "ServiceHarness":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
