"""Workload → FIFO → PrintQueue experiment runner.

The main harness path is offline and fast: a trace's arrivals go through
the vectorised FIFO fast path; the resulting dequeue records (sorted by
time) are replayed as a merged enqueue/dequeue event stream into
PrintQueue's per-port pipeline, with periodic polls at every set-period
boundary and optional data-plane triggers at chosen victims' dequeues.

Replay has one production path, ``engine="fused"`` (the default:
:class:`~repro.engine.IngestPipeline` over a record array), and one
oracle, ``engine="scalar"`` (the per-event reference loop kept here as
:func:`drive_printqueue_scalar`); the differential suite asserts they
are bit-identical.  Beside it, :func:`query_time_windows_scalar` is the
per-cell interval walk every compiled-plan answer is tested against.
The event-driven
:class:`~repro.switch.switchsim.Switch` path stays available for
non-FIFO schedulers and is validated against this one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.analysis import AnalysisProgram, TimeWindowSnapshot, newest_first
from repro.core.config import PrintQueueConfig
from repro.core.filtering import FilteredWindow
from repro.core.printqueue import DataPlaneQueryResult, PrintQueuePort
from repro.core.queries import FlowEstimate, QueryInterval
from repro.core.taxonomy import CulpritTaxonomy
from repro.errors import QueryError
from repro.obs.metrics import Metrics
from repro.obs.report import RunReport
from repro.store import SnapshotStore
from repro.switch.fastpath import fifo_record_batch
from repro.switch.telemetry import DequeueRecord
from repro.traffic.distributions import distribution_by_name
from repro.traffic.generator import PoissonWorkload, WorkloadConfig
from repro.traffic.trace import Trace
from repro.units import DEFAULT_LINK_RATE_BPS


@dataclass
class ExperimentRun:
    """Everything one experiment needs: records, oracle, and PrintQueue."""

    trace: Trace
    records: Sequence[DequeueRecord]
    pq: PrintQueuePort
    taxonomy: CulpritTaxonomy
    drops: int = 0
    dp_results: Dict[int, DataPlaneQueryResult] = field(default_factory=dict)
    metrics: Optional[Metrics] = None

    def report(self) -> RunReport:
        """Build a :class:`~repro.obs.report.RunReport` for this run."""
        return RunReport.from_port(
            self.pq,
            metrics=self.metrics,
            num_records=len(self.records),
            drops=self.drops,
        )


def run_trace_through_fifo(
    trace: Trace,
    rate_bps: int = DEFAULT_LINK_RATE_BPS,
    capacity_pkts: Optional[int] = None,
) -> Tuple[List[DequeueRecord], int]:
    """Vectorised FIFO pass; returns dequeue records in dequeue order."""
    batch, drops = fifo_record_batch(trace, rate_bps, capacity_pkts)
    return batch.to_records(), drops


def drive_printqueue(
    records: Sequence[DequeueRecord],
    pq: PrintQueuePort,
    dp_trigger_indices: Optional[Set[int]] = None,
    engine: str = "fused",
) -> Dict[int, DataPlaneQueryResult]:
    """Replay a dequeue log as a merged enqueue/dequeue event stream.

    ``dp_trigger_indices`` marks record positions (in dequeue order) at
    whose dequeue instant an on-demand read+query fires, emulating a
    data-plane trigger for exactly those victims.

    ``engine`` selects ``"fused"`` (the default and the production path:
    poll-boundary-aligned array batches via
    :class:`repro.engine.IngestPipeline` — ``records`` may be a
    :class:`~repro.switch.records.RecordBatch` to skip the conversion) or
    ``"scalar"`` (the per-event reference loop, the oracle).  Both
    produce identical snapshots, query results, and structure counters.
    """
    if engine == "fused":
        from repro.engine.ingest import IngestPipeline

        return IngestPipeline(
            pq, records, dp_trigger_indices=dp_trigger_indices
        ).run()
    if engine != "scalar":
        raise ValueError(f"unknown ingest engine {engine!r}")
    return drive_printqueue_scalar(records, pq, dp_trigger_indices)


def drive_printqueue_scalar(
    records: Sequence[DequeueRecord],
    pq: PrintQueuePort,
    dp_trigger_indices: Optional[Set[int]] = None,
) -> Dict[int, DataPlaneQueryResult]:
    """The per-event reference implementation of :func:`drive_printqueue`.

    Kept scalar on purpose: the differential suite replays the same log
    through this loop and the ingest pipeline and asserts record-for-record
    equal snapshots and estimates.
    """
    triggers = dp_trigger_indices or set()
    dp_results: Dict[int, DataPlaneQueryResult] = {}

    # Merged event iteration: enqueues ordered by enq_timestamp (arrival
    # order for a FIFO) and dequeues by deq_timestamp; enqueue wins ties.
    n = len(records)
    enq_order = sorted(range(n), key=lambda i: records[i].enq_timestamp)
    e = 0
    d = 0
    depth = 0
    while e < n or d < n:
        take_enq = False
        if e < n and d < n:
            take_enq = (
                records[enq_order[e]].enq_timestamp <= records[d].deq_timestamp
            )
        elif e < n:
            take_enq = True
        if take_enq:
            record = records[enq_order[e]]
            depth += 1
            pq.process_enqueue(record.flow, record.enq_timestamp, depth)
            e += 1
        else:
            record = records[d]
            depth -= 1
            pq.process_dequeue(record.flow, record.deq_timestamp, depth)
            if d in triggers:
                interval = QueryInterval.for_victim(
                    record.enq_timestamp, record.deq_timestamp
                )
                result = pq._dp_query_interval(record.deq_timestamp, interval)
                if result is not None:
                    dp_results[d] = result
            d += 1
    if records:
        end_ns = records[-1].deq_timestamp + 1
        pq.finish(end_ns)
    return dp_results


def query_time_windows_scalar(
    analysis: AnalysisProgram,
    interval: QueryInterval,
    snapshots: Optional[Sequence[TimeWindowSnapshot]] = None,
) -> FlowEstimate:
    """The per-cell reference walk of an interval query (Section 6.3).

    The executable specification the compiled plan
    (:mod:`repro.engine.queryplan`) is tested against: the interval is
    split into disjoint pieces, newest snapshot first, each attributed
    to the single window covering it, and every retained cell of that
    window the piece overlaps adds ``weight / coefficient`` to its flow.
    ``snapshots`` defaults to the periodic snapshots, as the plan's does.
    """
    if snapshots is None:
        snapshots = [s for s in analysis.tw_snapshots if s.source == "periodic"]
    if not snapshots:
        raise QueryError("no snapshots available; did the poller run?")
    estimate = FlowEstimate()
    remaining = [(interval.start_ns, interval.end_ns)]
    # Newest snapshots first: recency bias means the newest covering
    # snapshot has the least-compressed view of any time point.
    for snapshot in newest_first(snapshots):
        if not remaining:
            break
        remaining = _accumulate_snapshot_scalar(
            analysis, snapshot, remaining, estimate
        )
    return estimate


def _accumulate_snapshot_scalar(
    analysis: AnalysisProgram,
    snapshot: TimeWindowSnapshot,
    pieces: List[Tuple[int, int]],
    estimate: FlowEstimate,
) -> List[Tuple[int, int]]:
    """Add this snapshot's contribution; return the uncovered pieces."""
    k = analysis.config.k
    # Window 0 is newest; clamp each deeper window's coverage below the
    # previous one so every time point belongs to exactly one window.
    newer_start: Optional[int] = None
    leftovers = list(pieces)
    for fw in snapshot.windows:
        cov = fw.coverage_ns(k)
        if cov is None:
            continue
        cov_start, cov_end = cov
        # The frozen bank only recorded packets while it was active.
        cov_start = max(cov_start, snapshot.valid_from_ns)
        if newer_start is not None:
            cov_end = min(cov_end, newer_start)
        newer_start = cov_start
        if cov_end <= cov_start:
            continue
        coefficient = (
            analysis.coefficients[fw.window_index]
            if analysis.apply_coefficients
            else 1.0
        )
        if coefficient <= 0:
            continue
        new_leftovers: List[Tuple[int, int]] = []
        for piece_start, piece_end in leftovers:
            lo = max(piece_start, cov_start)
            hi = min(piece_end, cov_end)
            if hi <= lo:
                new_leftovers.append((piece_start, piece_end))
                continue
            _accumulate_window_scalar(
                fw, lo, hi, coefficient, analysis.fractional_cells, estimate
            )
            if piece_start < lo:
                new_leftovers.append((piece_start, lo))
            if hi < piece_end:
                new_leftovers.append((hi, piece_end))
        leftovers = new_leftovers
        if not leftovers:
            break
    return leftovers


def _accumulate_window_scalar(
    fw: FilteredWindow,
    start_ns: int,
    end_ns: int,
    coefficient: float,
    fractional_cells: bool,
    estimate: FlowEstimate,
) -> None:
    shift = fw.shift
    span = 1 << shift
    # Cells are sorted by TTS: bisect to the overlapping range instead
    # of scanning all 2^k entries per query.  The cell holding
    # ``start_ns`` is the first whose end exceeds the interval start.
    lo_tts = start_ns >> shift  # first cell whose end > start
    hi_tts = (end_ns - 1) >> shift  # last cell whose start < end
    cells = fw.cells
    lo = bisect.bisect_left(cells, lo_tts, key=lambda c: c[0]) if cells else 0
    for tts, flow in cells[lo:]:
        if tts > hi_tts:
            break
        if fractional_cells:
            cell_start = tts << shift
            overlap = min(cell_start + span, end_ns) - max(cell_start, start_ns)
            weight = overlap / span
        else:
            weight = 1.0
        estimate.add(flow, weight / coefficient)


def measured_d_ns(
    records: Sequence[DequeueRecord], config: PrintQueueConfig
) -> float:
    """The coefficients' d: the measured mean inter-departure time.

    This matches the paper's line-rate-forwarding assumption during
    congestion.  Fewer than two records have no spacing to measure, so d
    falls back to ``config.min_pkt_tx_delay_ns``.
    """
    if len(records) < 2:
        return float(config.min_pkt_tx_delay_ns)
    span = records[-1].deq_timestamp - records[0].deq_timestamp
    return span / (len(records) - 1)


def build_run(
    workload: str,
    duration_ns: int,
    load: float = 1.1,
    config: Optional[PrintQueueConfig] = None,
    seed: int = 1,
    *,
    trace: Optional[Trace] = None,
    engine: str = "fused",
    metrics: Optional[Metrics] = None,
    faults: Optional[object] = None,
    store: Optional[SnapshotStore] = None,
) -> Tuple[Trace, Sequence[DequeueRecord], int, PrintQueuePort]:
    """Build the pipeline: ``(trace, records, drops, pq)``, nothing driven.

    Generates the ``workload`` trace (or takes ``trace``), runs the FIFO
    and constructs the port with the measured d (:func:`measured_d_ns`).
    ``records`` is the object list for ``engine="scalar"`` (the oracle
    reads record attributes event by event) and a columnar
    :class:`~repro.switch.records.RecordBatch` otherwise.  With
    ``metrics`` attached, generation and the FIFO are timed into
    ``pq_ingest_stage_generate_ns`` / ``pq_ingest_stage_fifo_ns``.
    ``faults`` (a profile name, :class:`~repro.faults.FaultPlan`, or
    injector; None is the zero-rate ``"none"`` profile) seeds the fault
    injection the port's read path runs under; ``store`` is the snapshot-store backend the
    port writes to (default: in-memory).  Offline runs, the live service
    and the profiler all build here, so the same arguments give the same
    port state whoever drives it.
    """
    if trace is None:
        generator = PoissonWorkload(
            distribution_by_name(workload),
            WorkloadConfig(load=load, duration_ns=duration_ns),
            seed=seed,
        )
        t0 = perf_counter_ns() if metrics is not None else 0
        trace = generator.generate()
        if metrics is not None:
            metrics.histogram("pq_ingest_stage_generate_ns").observe(
                perf_counter_ns() - t0
            )
    records: Sequence[DequeueRecord]
    t0 = perf_counter_ns() if metrics is not None else 0
    if engine == "scalar":
        records, drops = run_trace_through_fifo(trace)
    else:
        records, drops = fifo_record_batch(trace)
    if metrics is not None:
        metrics.histogram("pq_ingest_stage_fifo_ns").observe(
            perf_counter_ns() - t0
        )
    cfg = config or PrintQueueConfig()
    # Instant on-demand reads: every sampled victim gets a DQ result.  The
    # realistic read-cost model (trigger rejection under PCIe pressure) is
    # exercised by the query-throughput micro-benchmark instead.
    pq = PrintQueuePort(
        cfg,
        d_ns=measured_d_ns(records, cfg),
        model_dp_read_cost=False,
        metrics=metrics,
        faults=faults,
        store=store,
    )
    return trace, records, drops, pq


def simulate_workload(
    workload: str,
    duration_ns: int,
    load: float = 1.1,
    config: Optional[PrintQueueConfig] = None,
    seed: int = 1,
    dp_trigger_indices: Optional[Set[int]] = None,
    trace: Optional[Trace] = None,
    engine: str = "fused",
    metrics: Optional[Metrics] = None,
    faults: Optional[object] = None,
    store: Optional[SnapshotStore] = None,
) -> ExperimentRun:
    """End-to-end run: :func:`build_run`, drive, then the ground truth.

    ``workload`` is one of ``ws`` / ``dm`` / ``uw`` (ignored when a
    ``trace`` is passed); ``config``, ``seed``, ``engine``, ``metrics``,
    ``faults`` and ``store`` are :func:`build_run`'s.  ``engine`` also
    selects the ingest path (see :func:`drive_printqueue`).  Structure
    counters are collected with or without ``metrics`` via
    :meth:`ExperimentRun.report`; a write-mode
    :class:`~repro.store.MmapStore` as ``store`` makes the run's poll
    stream a replayable on-disk recording.
    """
    trace, records, drops, pq = build_run(
        workload,
        duration_ns,
        load,
        config,
        seed,
        trace=trace,
        engine=engine,
        metrics=metrics,
        faults=faults,
        store=store,
    )
    dp_results = drive_printqueue(records, pq, dp_trigger_indices, engine=engine)
    return ExperimentRun(
        trace=trace,
        records=records,
        pq=pq,
        taxonomy=CulpritTaxonomy(records),
        drops=drops,
        dp_results=dp_results,
        metrics=metrics,
    )
