"""Shared infrastructure for the per-figure/table benchmarks.

Every accuracy figure scores the same thing: direct-culprit estimates
for band-sampled victims against the oracle.  So each workload draws its
ground truth once (:func:`ground_truth`: trace, FIFO log, measured d,
one :class:`~repro.core.taxonomy.CulpritTaxonomy`, the sampled victims
and each one's interval and ``direct()`` truth), and the benches score
against those shared truths.  Ports are driven over the shared log once
per (workload, config, triggers) (:func:`port`), and the HashPipe /
FlowRadar pair once per (workload, set period) (:func:`baselines`).
All three caches are plain dicts, so benches sharing a workload pay for
it once per pytest session.  Set ``REPRO_SCALE`` (default 1.0) to scale
trace durations and victim counts up or down.

``repro`` and this module are put on ``sys.path`` by
``benchmarks/conftest.py``; no path hacks are needed here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.baselines.flowradar import FlowRadar
from repro.baselines.hashpipe import HashPipe
from repro.baselines.interval import FixedIntervalEstimator
from repro.baselines.sampled import SampledTelemetry
from repro.core.config import PrintQueueConfig
from repro.core.printqueue import DataPlaneQueryResult, PrintQueuePort
from repro.core.queries import FlowEstimate, QueryInterval
from repro.core.taxonomy import CulpritTaxonomy
from repro.experiments.evaluation import victim_interval
from repro.experiments.runner import (
    build_run,
    drive_printqueue,
    measured_d_ns,
    query_time_windows_scalar,
)
from repro.experiments.sampling import sample_victims_by_band
from repro.metrics.accuracy import AccuracyScore, precision_recall
from repro.obs.metrics import Metrics
from repro.obs.report import RunReport
from repro.switch.packet import FlowKey
from repro.switch.records import RecordBatch
from repro.traffic.trace import Trace

SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))

#: Per-workload PrintQueue configurations (Section 7.1) and trace shapes.
#: Durations/loads are chosen so the depth ramp sweeps all Figure-9 bands.
WORKLOADS: Dict[str, Dict] = {
    "uw": {
        "config": PrintQueueConfig(m0=6, k=12, alpha=2, T=4, min_packet_bytes=64),
        "duration_ns": int(26_000_000 * SCALE),
        "load": 1.15,
        "seed": 42,
    },
    "ws": {
        "config": PrintQueueConfig(m0=10, k=12, alpha=1, T=4, min_packet_bytes=1500),
        "duration_ns": int(100_000_000 * SCALE),
        "load": 1.3,
        "seed": 42,
    },
    "dm": {
        "config": PrintQueueConfig(m0=10, k=12, alpha=1, T=4, min_packet_bytes=1500),
        "duration_ns": int(100_000_000 * SCALE),
        "load": 1.3,
        "seed": 42,
    },
}

VICTIMS_PER_BAND = max(5, int(30 * SCALE))

Band = Tuple[int, Optional[int]]
Port = Tuple[PrintQueuePort, Dict[int, DataPlaneQueryResult]]


@dataclass
class GroundTruth:
    """One workload's trace, dequeue log and oracle answers."""

    trace: Trace
    records: RecordBatch
    drops: int
    #: The coefficients' d, measured once from the log.
    d_ns: float
    #: Registry of the generate/FIFO stages, reported with the default port.
    metrics: Metrics
    taxonomy: CulpritTaxonomy
    #: Sampled victim record indices per Figure-9 depth band, ascending.
    victims: Dict[Band, List[int]]
    #: Every sampled victim, ascending.
    union: List[int]
    intervals: Dict[int, QueryInterval]
    truths: Dict[int, FlowEstimate]

    def dequeues(self) -> Iterator[Tuple[FlowKey, int]]:
        """``(flow, dequeue time)`` of every record in dequeue order, read
        from the log's columns."""
        flows = self.records.flows
        for f, deq_ts in zip(
            self.records.flow_index.tolist(), self.records.deq_timestamp.tolist()
        ):
            yield flows[f], deq_ts

    def score(
        self, indices: Sequence[int], estimates: Iterable[FlowEstimate]
    ) -> List[AccuracyScore]:
        """Score ``estimates`` against the victims' direct truths."""
        truths = self.truths
        return [precision_recall(e, truths[i]) for i, e in zip(indices, estimates)]

    def score_async(
        self, pq: PrintQueuePort, indices: Sequence[int]
    ) -> List[AccuracyScore]:
        """Score the port's asynchronous answers, one compiled-plan batch."""
        if not indices:
            return []
        result = pq.query(intervals=[self.intervals[i] for i in indices])
        return self.score(indices, result.estimates)

    def score_baseline(
        self,
        estimator: FixedIntervalEstimator | SampledTelemetry,
        indices: Sequence[int],
    ) -> List[AccuracyScore]:
        """Score a baseline's interval estimates."""
        estimates = (estimator.query(self.intervals[i]) for i in indices)
        return self.score(indices, estimates)

    def score_dataplane(
        self, dp_results: Dict[int, DataPlaneQueryResult], indices: Sequence[int]
    ) -> List[AccuracyScore]:
        """Score the completed on-demand queries (a rejected trigger is
        skipped, as on hardware)."""
        done = [i for i in indices if i in dp_results]
        return self.score(done, (dp_results[i].estimate for i in done))


_truths: Dict[str, GroundTruth] = {}
_ports: Dict[Tuple[str, PrintQueueConfig, bool], Port] = {}
_baselines: Dict[Tuple[str, int], Tuple[FixedIntervalEstimator, ...]] = {}


def workload_config(name: str, **overrides) -> PrintQueueConfig:
    cfg = WORKLOADS[name]["config"]
    if not overrides:
        return cfg
    return replace(cfg, **overrides)


def ground_truth(workload: str) -> GroundTruth:
    """The workload's ground truth, built on first use."""
    if workload not in _truths:
        spec = WORKLOADS[workload]
        metrics = Metrics()
        # build_run is the one generate -> FIFO path; its port is unused,
        # every configuration gets its own from port().
        trace, records, drops, _ = build_run(
            workload,
            spec["duration_ns"],
            spec["load"],
            spec["config"],
            spec["seed"],
            metrics=metrics,
        )
        taxonomy = CulpritTaxonomy(records)
        victims = sample_victims_by_band(records, per_band=VICTIMS_PER_BAND)
        union = sorted({i for indices in victims.values() for i in indices})
        _truths[workload] = GroundTruth(
            trace=trace,
            records=records,
            drops=drops,
            d_ns=measured_d_ns(records, spec["config"]),
            metrics=metrics,
            taxonomy=taxonomy,
            victims=victims,
            union=union,
            intervals={i: victim_interval(records[i]) for i in union},
            truths={i: taxonomy.direct(records[i]) for i in union},
        )
    return _truths[workload]


def port(
    workload: str,
    config: Optional[PrintQueueConfig] = None,
    triggers: bool = False,
) -> Port:
    """``(pq, dp_results)``: a port of ``config`` (default: the
    workload's) driven over the shared log.

    With ``triggers`` an on-demand query fires at every sampled victim's
    dequeue, and ``dp_results`` holds the completed ones.  The default
    configuration's untriggered port carries the workload's metrics and
    writes its RunReport.
    """
    default = WORKLOADS[workload]["config"]
    cfg = config or default
    key = (workload, cfg, triggers)
    if key not in _ports:
        truth = ground_truth(workload)
        reported = cfg == default and not triggers
        pq = PrintQueuePort(
            cfg,
            d_ns=truth.d_ns,
            model_dp_read_cost=False,
            metrics=truth.metrics if reported else None,
        )
        dp_results = drive_printqueue(
            truth.records, pq, set(truth.union) if triggers else None
        )
        if reported:
            save_run_report(workload, pq, truth)
        _ports[key] = (pq, dp_results)
    return _ports[key]


def baselines(
    workload: str, set_period_ns: int
) -> Tuple[FixedIntervalEstimator, ...]:
    """HashPipe and FlowRadar fed the workload's dequeues.

    Table 2's setup: 5 stages x 4096 entries of SRAM each, reset every
    PrintQueue set period, prorated on query.
    """
    key = (workload, set_period_ns)
    if key not in _baselines:
        pair = (
            FixedIntervalEstimator(
                HashPipe(slots_per_stage=4096, stages=5), set_period_ns
            ),
            FixedIntervalEstimator(
                FlowRadar(
                    num_cells=3 * 4096, num_hashes=3, filter_bits=2 * 4096 * 8
                ),
                set_period_ns,
            ),
        )
        for flow, deq_ts in ground_truth(workload).dequeues():
            for estimator in pair:
                estimator.update(flow, deq_ts)
        for estimator in pair:
            estimator.finish()
        _baselines[key] = pair
    return _baselines[key]


def scalar_reference(pq, intervals: Sequence) -> List:
    """The executable specification's answers for ``intervals``.

    ``pq.query`` is the compiled plan whether it is asked one interval or
    many, so a "vs scalar" comparison has to call the per-cell walk
    (``query_time_windows_scalar``, over the periodic snapshots) itself —
    this is what ties the paper figures to Algorithms 2-3.
    """
    return [query_time_windows_scalar(pq.analysis, iv) for iv in intervals]


def assert_plan_matches_scalar(
    pq: PrintQueuePort,
    truth: GroundTruth,
    indices: Sequence[int],
    dp_results: Optional[Dict[int, DataPlaneQueryResult]] = None,
) -> None:
    """Spot-check: the plan's answers for these victims, asynchronous and
    (where the port triggered them) data-plane, equal the scalar walk's,
    flow for flow and in the same iteration order."""
    intervals = [truth.intervals[i] for i in indices]
    planned = pq.query(intervals=intervals).estimates
    for i, (s, b) in enumerate(zip(scalar_reference(pq, intervals), planned)):
        assert list(s.items()) == list(b.items()), f"plan diverged at victim {i}"
    for i in indices:
        result = (dp_results or {}).get(i)
        if result is None:
            continue
        spec = query_time_windows_scalar(
            pq.analysis, result.interval, snapshots=[result.snapshot]
        )
        assert list(spec.items()) == list(result.estimate.items()), (
            f"data-plane answer diverged at victim {i}"
        )


#: JSON results written next to the benches; EXPERIMENTS.md references it.
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.json")

#: Per-workload RunReports written alongside results.json (observability
#: counters of each workload's default-config port).
REPORTS_DIR = os.path.join(os.path.dirname(__file__), "reports")


def save_run_report(name: str, pq: PrintQueuePort, truth: GroundTruth) -> Optional[str]:
    """Best-effort: save the port's RunReport as reports/<name>.json."""
    try:
        os.makedirs(REPORTS_DIR, exist_ok=True)
        path = os.path.join(REPORTS_DIR, f"{name}.json")
        RunReport.from_port(
            pq, metrics=truth.metrics, num_records=len(truth.records), drops=truth.drops
        ).save(path)
        return path
    except OSError:
        return None


def _result_store():
    from repro.experiments.reporting import ResultStore

    if os.path.exists(RESULTS_PATH):
        try:
            return ResultStore.load(RESULTS_PATH)
        except (ValueError, KeyError):
            pass
    return ResultStore()


def print_table(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Render one paper artifact as an aligned text table + JSON record."""
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    try:
        store = _result_store()
        table = store.table(title, list(header))
        table.rows = [list(r) for r in rows]
        store.save(RESULTS_PATH)
    except OSError:
        pass  # results persistence is best-effort


def fmt(x: float) -> str:
    return f"{x:.3f}"
