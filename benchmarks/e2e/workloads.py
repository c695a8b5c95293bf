"""The four workloads: what one pass runs, times and (on request) verifies.

A *pass* is one complete trip down the production path for one trace,
from packet generation to answered questions.  Timed regions contain
only calls into the layers (``layers.py``); choosing the victims to ask
about, result checks and accuracy scoring sit outside them.  Each pass
function returns a :class:`PassResult` holding the pass's end-to-end
values, its latency samples and — for a traced pass — its per-layer
values and ledger.

Every pass of a run draws its **own trace** from ``trace_seed(seed,
index)``.  Query cost depends on the traffic a seed happens to draw
(how many flows, where the queue builds), so one trace per run would
make a run's numbers as variable as the traffic model; the median over
a run's passes is a median over traces.  Index 0 is the trace the run
verifies, scores accuracy on and reports its deterministic counts for.

Load shape: one process; the offline workloads are single-threaded batch
jobs, the service workload is a closed loop with **one** client
connection over loopback TCP against the in-process ``ServiceHarness``
thread (a diagnosing operator waits for each answer before the next).
"""

from __future__ import annotations

import gc
import os
import random
import resource
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import layers as L
from spans import NO_TRACE, Ledger, build_ledger
from statistics import median

now = time.perf_counter

#: in-process ``query(interval=...)`` / ``query(at_ns=...)`` calls per pass,
#: about the first victims of the batch.  340 x 3 passes is the least that,
#: pooled, supports a p99; a queue-monitor query walks a stack tens of
#: thousands deep in Python, so there are few of them.
SINGLES = 340
QM_QUERIES = 10
#: closed-loop requests that make up the service's "first batch".
FIRST_BATCH = 20
#: drained-phase requests and pings of the service workload.  A count,
#: not a duration: gen-2 garbage collections (~0.25 s each over the
#: service's heap) are allocation-driven, so a fixed request count meets
#: the same number of them every pass and a fixed second does not.
DRAINED_REQUESTS = 2000
PINGS = 2000
#: request interval lengths on the wire, ns (50 us - 2 ms).
WIRE_INTERVAL_NS = (50_000, 2_000_000)

#: shallowest queue a victim is taken from (the first Figure-9 band).
VICTIM_DEPTH = 1000
#: correctness checks (outside timed regions, every invocation).
CHECK_PACKETS = 20_000
CHECK_VICTIMS = 50
WIRE_CHECKS = 50
#: accuracy is scored on this many records from the onset of congestion:
#: the queue ramps through the Figure-9 depth bands within them, and
#: CulpritTaxonomy costs ~10 us/packet to build.
ACCURACY_SLICE = 150_000
ACCURACY_PER_BAND = 34


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "offline" | "service"
    dist: str
    load: float
    duration_ns: int
    config: Any
    victims: int = 0
    store: str = "memory"
    #: tail-drop capacity of the FIFO, packets (None: unbounded).
    capacity_pkts: Optional[int] = None


#: ~0.74 M arrivals of ~100 B packets; both uw workloads run these traces,
#: so their difference is the store backend alone.
UW_DURATION_NS = 60_000_000
UW_CONFIG = L.PrintQueueConfig(m0=6, k=12, alpha=2, T=4)
WS_CONFIG = L.PrintQueueConfig(m0=10, k=12, alpha=1, T=4, min_packet_bytes=1500)

#: The offline FIFO tail-drops at 30 k packets, a switch-sized buffer: the
#: queue ramps through every Figure-9 depth band and then stays in the
#: top one.  Unbounded, its depth (and with it every victim interval and
#: queue-monitor walk) grows with whatever elephants the seed drew, and
#: query cost swings 2-4x between seeds.
BUFFER_PKTS = 30_000

SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "uw_replay", "offline", "uw", 1.2, UW_DURATION_NS, UW_CONFIG, 4000,
            capacity_pkts=BUFFER_PKTS,
        ),
        Spec(
            "ws_query", "offline", "ws", 1.3, 400_000_000, WS_CONFIG, 2000,
            capacity_pkts=BUFFER_PKTS,
        ),
        Spec(
            "uw_mmap_roundtrip", "offline", "uw", 1.2, UW_DURATION_NS, UW_CONFIG, 4000,
            store="mmap", capacity_pkts=BUFFER_PKTS,
        ),
        # 1.2 s of Web-Search traffic (~1.2 M packets, ~40 live answers a
        # pass): the longest live ingest whose generation + FIFO still
        # lets the passes and their checks fit the time cap.  The service
        # builds its own trace and has no buffer knob: its FIFO is unbounded.
        Spec("ws_serve_live", "service", "ws", 1.2, 1_200_000_000, WS_CONFIG),
    )
}


def trace_seed(seed: int, index: int) -> int:
    """The generator seed of a run's ``index``-th trace."""
    return seed * 1000 + index


class Tally:
    """Operations attempted and failed over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, passed: bool, what: str) -> None:
        if passed:
            self.ok()
        else:
            self.fail(f"check failed: {what}")


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    e2e: Dict[str, float]
    counts: Dict[str, int]
    samples: Dict[str, List[float]]
    #: ``ru_maxrss`` right after the timed part, before any verification.
    rss_mb: float
    #: only on a traced pass.
    layer: Dict[str, float] = field(default_factory=dict)
    ledger: Optional[Ledger] = None
    #: only on the verifying pass.
    accuracy: Optional[Tuple[float, float]] = None


def make_generator(spec: Spec, seed: int) -> Any:
    return L.PoissonWorkload(
        L.distribution_by_name(spec.dist),
        L.WorkloadConfig(load=spec.load, duration_ns=spec.duration_ns),
        seed=seed,
    )


def warm_up(spec: Spec) -> None:
    """The tail of set-up: build the workload's objects and push a 2 ms
    trace through them, so lazy imports are paid before the first timed call."""
    small = replace(spec, duration_ns=2_000_000)
    _, batch, _ = make_generator(small, 1).generate_records()
    pq = L.new_port(spec.config, batch, L.MemoryStore())
    L.drive_printqueue(batch, pq, engine="fused")
    whole = L.QueryInterval(0, int(batch.deq_timestamp[-1]))
    pq.query(intervals=[whole])
    pq.query(interval=whole)
    if spec.kind == "service":
        service_config, ServiceHarness, _ = L.service_api()
        ServiceHarness(config=service_config(pq_config=spec.config))


# -- choosing what to ask (outside timed regions) ------------------------------


@dataclass
class Questions:
    intervals: List[Any]
    singles: List[Any]
    qm_times: List[int]


def choose_questions(spec: Spec, batch: Any, seed: int) -> Questions:
    """The pass's victims, drawn uniformly from every packet that queued
    ``VICTIM_DEPTH`` deep: the packets an operator would ask about.

    Not band-balanced like the accuracy sample: five of the six Figure-9
    bands only occur while the queue ramps up, a few milliseconds whose
    traffic mix differs from trace to trace, and a batch that is five
    sixths ramp-up cost 0.17-0.39 s over ten uw traces where this one
    costs 0.32-0.40 s.
    """
    enq, deq = batch.enq_timestamp, batch.deq_timestamp
    queued = (batch.enq_qdepth >= VICTIM_DEPTH).nonzero()[0]
    if len(queued) == 0:
        raise RuntimeError(f"{spec.name}: trace {seed} queues no victim 1k deep")
    rng = random.Random(seed)
    victims = [int(queued[rng.randrange(len(queued))]) for _ in range(spec.victims)]
    intervals = [
        L.QueryInterval.for_victim(int(enq[i]), int(deq[i])) for i in victims
    ]
    return Questions(
        intervals=intervals,
        singles=intervals[:SINGLES],
        qm_times=[int(deq[i]) for i in victims[:QM_QUERIES]],
    )


def _estimates(result: Any) -> List[Dict[Any, float]]:
    """Per-victim ``{flow: count}`` from a port batch or a replayed-analysis list."""
    return [dict(getattr(r, "estimate", r).items()) for r in result]


def _score_accuracy(pq: Any, batch: Any, seed: int) -> Tuple[float, float]:
    """Mean direct-culprit precision/recall of ~200 band-sampled victims."""
    depth = batch.enq_qdepth
    # The slice opens at the head of the queue the first 1k-deep victim
    # joined: every later victim's direct culprits (the packets ahead of
    # it) then lie inside the slice too, because a FIFO's head only moves
    # forward.
    first = int((depth >= VICTIM_DEPTH).argmax())
    onset = max(0, first - int(depth[first]))
    records = batch[onset : onset + ACCURACY_SLICE]
    bands = L.sample_victims_by_band(
        records[::4], per_band=ACCURACY_PER_BAND, seed=seed
    )
    victims = sorted(i * 4 for band in bands.values() for i in band)
    scores = L.evaluate_async_queries(
        pq, L.CulpritTaxonomy(records), records, victims
    )
    if not scores:
        raise RuntimeError("no victim in the accuracy slice")
    return (
        sum(s.precision for s in scores) / len(scores),
        sum(s.recall for s in scores) / len(scores),
    )


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_each(
    tracer: Any,
    name: str,
    call: Callable[[Any], Any],
    args: Sequence[Any],
    tally: Tally,
) -> List[float]:
    """Call once per argument; per-call milliseconds.

    A typed error, a refusal (``accepted=False``) or a ``degraded`` answer
    with faults off counts as a failed operation.
    """
    ms: List[float] = []
    for arg in args:
        start = now()
        try:
            with tracer.span(name):
                answer = call(arg)
        except L.ReproError as exc:
            tally.fail(f"{name} raised {exc!r}")
            continue
        ms.append((now() - start) * 1e3)
        if getattr(answer, "degraded", False) or not getattr(answer, "accepted", True):
            tally.fail(f"{name} refused or degraded with faults off")
        else:
            tally.ok()
    return ms


def _span_seconds(tracer: Any) -> Dict[str, float]:
    seconds: Dict[str, float] = {}
    for span in tracer.spans:
        seconds[span.name] = seconds.get(span.name, 0.0) + (span.end - span.start)
    return seconds


def _common_layers(
    counts: Dict[str, int], ledger: Ledger, wall: float, cpu: float
) -> Dict[str, float]:
    outcomes = counts["core.tw_passes"] + counts["core.tw_drops"]
    layer: Dict[str, float] = dict(counts)
    layer.update(
        {
            "core.pass_ratio": counts["core.tw_passes"] / outcomes if outcomes else 0.0,
            "store.bytes_per_packet": counts["store.bytes"] / counts["traffic.packets"],
            "proc.cpu_s": cpu,
            "proc.cpu_util": cpu / wall,
            "ledger.unattributed_s": ledger.unattributed_s,
            "ledger.unattributed_frac": ledger.unattributed_frac,
        }
    )
    return layer


# -- offline workloads ---------------------------------------------------


def run_offline(
    spec: Spec, seed: int, tracer: Any, workdir: str, tally: Tally, verify: bool
) -> PassResult:
    traced = tracer is not NO_TRACE
    metrics = L.Metrics() if traced else None
    path = os.path.join(workdir, f"{spec.name}-{os.getpid()}.pqstore")
    replayed = memory_copy = None
    gc.collect()
    cpu0 = time.process_time()
    t0 = now()
    with tracer.span("pass"):
        generator = make_generator(spec, seed)
        if traced:
            # generate_records() is exactly these two calls; made apart so
            # each layer gets its own span.
            with tracer.span("traffic.generate"):
                trace = generator.generate()
            with tracer.span("switch.fifo"):
                batch, drops = L.fifo_record_batch(
                    trace, generator.config.link_rate_bps, spec.capacity_pkts
                )
        else:
            trace, batch, drops = generator.generate_records(
                capacity_pkts=spec.capacity_pkts
            )
        store = L.MmapStore(path) if spec.store == "mmap" else L.MemoryStore()
        pq = L.new_port(spec.config, batch, store, metrics)
        with tracer.span("engine.drive"):
            L.drive_printqueue(batch, pq, engine="fused")
        with tracer.span("store.close"):
            store.close()
        t_pipeline = now()

        # The benchmark's own work, off every end-to-end clock: a "bench"
        # row in the ledger, not a layer and not hidden in the remainder.
        with tracer.span("bench.choose_questions"):
            asked = choose_questions(spec, batch, seed)
        t_asking = now()

        if spec.store == "mmap":
            with tracer.span("store.open"):
                replayed = L.replay_analysis(path, backend="mmap")
            with tracer.span("store.decode"):
                memory_copy = L.replay_store(path, backend="memory")
            ask_batch = replayed.query_time_windows_batch
            ask_single = replayed.query_time_windows
            ask_qm = replayed.original_culprits
            analysis = replayed
        else:
            def ask_batch(intervals: Any) -> Any:
                return pq.query(intervals=intervals)

            def ask_single(interval: Any) -> Any:
                return pq.query(interval=interval)

            def ask_qm(at_ns: int) -> Any:
                return pq.query(at_ns=at_ns)

            analysis = pq.analysis

        with tracer.span("queryplan.batch_cold"):
            cold = ask_batch(asked.intervals)
        t_first = now()
        with tracer.span("queryplan.batch_warm"):
            warm = ask_batch(asked.intervals)
        t_warm = now()
        single_ms = _timed_each(
            tracer, "queryplan.single", ask_single, asked.singles, tally
        )
        qm_ms = _timed_each(tracer, "queryplan.qm", ask_qm, asked.qm_times, tally)
    wall = now() - t0
    cpu = time.process_time() - cpu0
    rss = _rss_mb()

    packets = len(batch)
    tally.ok()  # the ingest pass
    for answer in (cold, warm):
        if getattr(answer, "degraded", False):
            tally.fail("batch answer degraded with faults off")
        tally.ok(len(answer))

    pipeline_s = t_pipeline - t0
    first_answer_s = t_first - t_asking
    counts = L.deterministic_counts(pq)
    result = PassResult(
        wall_s=wall,
        cpu_s=cpu,
        e2e={
            "trace_to_answer_s": pipeline_s + first_answer_s,
            "pipeline_mpps": packets / pipeline_s / 1e6,
            "first_answer_s": first_answer_s,
            "answer_qps": len(asked.intervals) / (t_warm - t_first),
            "answer_p50_ms": median(single_ms),
        },
        counts=counts,
        samples={"single_ms": single_ms, "qm_ms": qm_ms},
        rss_mb=rss,
    )
    if traced:
        ledger = build_ledger(tracer.spans)
        span_s = _span_seconds(tracer)
        stages, steps = L.stage_seconds(metrics)
        ledger.split("engine.drive", stages, remainder="engine.other")
        drive_s = span_s["engine.drive"]
        fifo_s = span_s["switch.fifo"]
        warm_s = span_s["queryplan.batch_warm"]
        result.ledger = ledger
        result.layer = {
            "traffic.generate_s": span_s["traffic.generate"],
            "traffic.flows": len(trace.flows),
            "switch.fifo_s": fifo_s,
            "switch.fifo_mpps": packets / fifo_s / 1e6,
            "switch.drops": drops,
            "switch.max_qdepth": int(batch.enq_qdepth.max()),
            "engine.drive_s": drive_s,
            "engine.drive_mpps": packets / drive_s / 1e6,
            "engine.steps": steps,
            "engine.other_s": drive_s - sum(stages.values()),
            "core.qm_write_back_s": stages["core.qm_write_back"],
            "core.absorb_s": stages["core.absorb"],
            "core.filter_s": stages["core.filter"],
            "store.encode_s": stages["store.encode"],
            "store.close_s": span_s["store.close"],
            "store.open_s": span_s.get("store.open", 0.0),
            "store.decode_s": span_s.get("store.decode", 0.0),
            "queryplan.compile_s": span_s["queryplan.batch_cold"] - warm_s,
            "queryplan.lookup_s": warm_s,
            "queryplan.victim_us": warm_s / len(asked.intervals) * 1e6,
            "queryplan.cache_hits": analysis.plan_cache_hits,
            "queryplan.cache_misses": analysis.plan_cache_misses,
        }
        result.layer.update(_common_layers(counts, ledger, wall, cpu))

    if verify:
        cold_estimates = _estimates(cold)
        tally.check(cold_estimates == _estimates(warm), "warm batch == cold batch")
        picks = range(min(CHECK_VICTIMS, len(asked.intervals)))
        tally.check(
            all(
                cold_estimates[i] == _estimates([ask_single(asked.intervals[i])])[0]
                for i in picks
            ),
            "batch answer == single answer",
        )
        head = batch[:CHECK_PACKETS]
        views = []
        for engine in ("fused", "scalar"):
            port = L.new_port(spec.config, head, L.MemoryStore())
            L.drive_printqueue(head, port, engine=engine)
            views.append(L.RunReport.from_port(port).deterministic_view())
        tally.check(views[0] == views[1], "fused == scalar deterministic_view")
        scored = pq
        if spec.store == "mmap":
            # The same trace through a MemoryStore is what uw_replay runs:
            # the reopened file must answer exactly as it does.
            scored = L.new_port(spec.config, batch, L.MemoryStore())
            L.drive_printqueue(batch, scored, engine="fused")
            tally.check(
                cold_estimates == _estimates(scored.query(intervals=asked.intervals)),
                "mmap round-trip answers == memory answers",
            )
            reference = L.deterministic_counts(scored)
            reference.pop("store.bytes")  # encoded size is backend-specific
            tally.check(
                all(counts[k] == v for k, v in reference.items()),
                "mmap counts == memory counts",
            )
            tally.check(
                memory_copy.tw_bytes + memory_copy.qm_bytes > 0
                and len(memory_copy.tw_view()) == counts["store.tw_snapshots"],
                "memory replay holds every snapshot",
            )
        result.accuracy = _score_accuracy(scored, batch, seed)

    if spec.store == "mmap":
        # Plans hold zero-copy views into the map: drop them before the file.
        del replayed, memory_copy, analysis, ask_batch, ask_single, ask_qm
        gc.collect()
        os.unlink(path)
    return result


# -- the service workload -----------------------------------------------------


def run_service(
    spec: Spec, seed: int, tracer: Any, workdir: str, tally: Tally, verify: bool
) -> PassResult:
    service_config, ServiceHarness, ServiceClient = L.service_api()
    config = service_config(
        workload=spec.dist,
        load=spec.load,
        engine="fused",
        duration_ns=spec.duration_ns,
        seed=seed,
        pq_config=spec.config,
    )
    rng = random.Random(seed)
    harness = ServiceHarness(config=config)
    service = harness.service
    state = {"answered": 0, "degraded": 0, "t_first": 0.0}

    def draw(horizon_ns: int) -> Tuple[int, int]:
        length = rng.randint(*WIRE_INTERVAL_NS)
        start = rng.randint(0, max(0, horizon_ns - length))
        return start, start + length

    def ask(client: Any, start_ns: int, end_ns: int) -> Tuple[float, Any]:
        """One closed-loop wire query: (milliseconds, answer or None)."""
        sent = now()
        try:
            with tracer.span("service.query"):
                answer = client.query(start_ns, end_ns)
        except (L.ReproError, OSError) as exc:  # typed refusal, or a dead socket
            tally.fail(f"wire query raised {exc!r}")
            return (now() - sent) * 1e3, None
        ms = (now() - sent) * 1e3
        if answer.get("degraded"):
            state["degraded"] += 1
            tally.fail("wire answer degraded with faults off")
        else:
            tally.ok()
        state["answered"] += 1
        if state["answered"] == FIRST_BATCH:
            state["t_first"] = now()
        return ms, answer

    gc.collect()
    cpu0 = time.process_time()
    t0 = now()
    try:
        with tracer.span("pass"):
            with tracer.span("service.build"):
                host, port = harness.start()
            t_ready = now()
            ingest = service.ingest
            # The dequeue log the service built for itself: its length is
            # what "already ingested" is measured against.
            batch = ingest.pipeline.batch
            total_events = 2 * len(batch)
            with ServiceClient(host, port) as client:
                while True:
                    with tracer.span("service.status"):
                        status = client.status()
                    if status["snapshots"] >= 1 or status["ingest"]["status"] != "running":
                        break
                # live: questions about the range already ingested, while
                # ingest and the query worker share one event loop.
                t_live = now()
                events_live = ingest.events_ingested
                live_ms: List[float] = []
                while ingest.status == "running":
                    horizon = spec.duration_ns * ingest.events_ingested // total_events
                    live_ms.append(ask(client, *draw(horizon))[0])
                t_drained = now()
                events_total = ingest.events_ingested
                # drained: the same question mix over the whole trace.
                drained_ms = [
                    ask(client, *draw(spec.duration_ns))[0]
                    for _ in range(DRAINED_REQUESTS)
                ]
                drained_s = now() - t_drained
                ping_ms = _timed_each(
                    tracer, "service.ping", lambda _: client.ping(), range(PINGS), tally
                )
                with tracer.span("service.status"):
                    status = client.status()
        wall = now() - t0
        cpu = time.process_time() - cpu0
        rss = _rss_mb()

        if not live_ms or state["answered"] < FIRST_BATCH:
            raise RuntimeError(
                f"{spec.name}: ingest drained before a live sample was taken"
            )
        tally.check(status["ingest"]["status"] == "drained", "ingest drained")
        tally.check(events_total == total_events, "service ingested its whole log")

        pq = service.pq
        packets = len(batch)
        counts = L.deterministic_counts(pq)
        result = PassResult(
            wall_s=wall,
            cpu_s=cpu,
            e2e={
                "trace_to_answer_s": state["t_first"] - t0,
                "pipeline_mpps": packets / (t_drained - t0) / 1e6,
                "first_answer_s": state["t_first"] - t_ready,
                "answer_qps": len(drained_ms) / drained_s,
                "answer_p50_ms": median(live_ms),
            },
            counts=counts,
            samples={"live_ms": live_ms, "drained_ms": drained_ms, "ping_ms": ping_ms},
            rss_mb=rss,
        )
        if tracer is not NO_TRACE:
            ledger = build_ledger(tracer.spans)
            stages, steps = L.stage_seconds(service.metrics)
            ingest_s = t_drained - t_ready
            server_p50 = float(status["slo"]["p50_ms"])
            result.ledger = ledger
            # Generation and the FIFO run inside ServiceHarness.start() and
            # cannot be told apart from outside: both are in service.build_s.
            result.layer = {
                "traffic.flows": len(batch.flows),
                "switch.max_qdepth": int(batch.enq_qdepth.max()),
                "engine.drive_s": ingest_s,
                "engine.drive_mpps": packets / ingest_s / 1e6,
                "engine.steps": steps,
                "engine.other_s": ingest_s - sum(stages.values()),
                "core.qm_write_back_s": stages["core.qm_write_back"],
                "core.absorb_s": stages["core.absorb"],
                "core.filter_s": stages["core.filter"],
                "store.encode_s": stages["store.encode"],
                "queryplan.cache_hits": pq.analysis.plan_cache_hits,
                "queryplan.cache_misses": pq.analysis.plan_cache_misses,
                "service.build_s": _span_seconds(tracer)["service.build"],
                "service.server_p50_ms": server_p50,
                "service.wire_overhead_ms": median(drained_ms) - server_p50,
                "service.drained_p50_ms": median(drained_ms),
                "service.live_ingest_mpps": (events_total - events_live)
                / 2
                / (t_drained - t_live)
                / 1e6,
                "service.chunk_ms": ingest_s / status["ingest"]["chunks"] * 1e3,
                "service.chunks": status["ingest"]["chunks"],
                "service.events": events_total,
                "service.overloads": status["rejected"],
                "service.degraded": state["degraded"],
                "service.restarts": status["ingest"]["restarts"],
            }
            result.layer.update(_common_layers(counts, ledger, wall, cpu))

        if verify:
            with ServiceClient(host, port) as client:
                same = True
                for _ in range(WIRE_CHECKS):
                    start_ns, end_ns = draw(spec.duration_ns)
                    _, answer = ask(client, start_ns, end_ns)
                    local = pq.query(interval=L.QueryInterval(start_ns, end_ns))
                    same = same and answer is not None and (
                        answer["estimate"] == L.wire_estimate(local.estimate)
                    )
                tally.check(same, "wire answer == in-process answer")
            result.accuracy = _score_accuracy(pq, batch, seed)
        return result
    finally:
        harness.stop()


RUNNERS = {"offline": run_offline, "service": run_service}
