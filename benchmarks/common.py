"""Shared infrastructure for the per-figure/table benchmarks.

Simulation runs and victim samples are memoised in plain dicts, so
benches sharing a workload (Fig. 9 / Table 2 / Fig. 10 all use the same
UW run) pay for it once per pytest session.  Set ``REPRO_SCALE``
(default 1.0) to scale trace durations and victim counts up or down.

``repro`` and this module are put on ``sys.path`` by
``benchmarks/conftest.py``; no path hacks are needed here.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.flowradar import FlowRadar
from repro.baselines.hashpipe import HashPipe
from repro.baselines.interval import FixedIntervalEstimator
from repro.core.config import PrintQueueConfig
from repro.experiments.evaluation import victim_interval
from repro.experiments.runner import (
    ExperimentRun,
    query_time_windows_scalar,
    simulate_workload,
)
from repro.experiments.sampling import sample_victims_by_band
from repro.obs.metrics import Metrics

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

_run_cache: Dict[Tuple, Tuple[ExperimentRun, List[FixedIntervalEstimator]]] = {}
_victim_cache: Dict[Tuple, Dict] = {}


def workload_config(name: str, **overrides) -> PrintQueueConfig:
    cfg = WORKLOADS[name]["config"]
    if not overrides:
        return cfg
    from dataclasses import replace

    return replace(cfg, **overrides)


def get_run(
    workload: str,
    config: Optional[PrintQueueConfig] = None,
    dp_triggers: Optional[Set[int]] = None,
    with_baselines: bool = False,
    seed: Optional[int] = None,
) -> Tuple[ExperimentRun, List[FixedIntervalEstimator]]:
    """Simulate (or fetch from cache) one workload configuration."""
    spec = WORKLOADS[workload]
    cfg = config or spec["config"]
    seed = spec["seed"] if seed is None else seed
    key = (
        workload,
        cfg,
        seed,
        frozenset(dp_triggers) if dp_triggers else None,
        with_baselines,
    )

    def compute() -> Tuple[ExperimentRun, List[FixedIntervalEstimator]]:
        baselines: List[FixedIntervalEstimator] = []
        if with_baselines:
            # Table 2: HashPipe and FlowRadar get 5 stages x 4096 entries
            # of SRAM, reset every PrintQueue set period, prorated on
            # query.
            baselines.extend(
                [
                    FixedIntervalEstimator(
                        HashPipe(slots_per_stage=4096, stages=5), cfg.set_period_ns
                    ),
                    FixedIntervalEstimator(
                        FlowRadar(
                            num_cells=3 * 4096,
                            num_hashes=3,
                            filter_bits=2 * 4096 * 8,
                        ),
                        cfg.set_period_ns,
                    ),
                ]
            )
        run = simulate_workload(
            workload,
            duration_ns=spec["duration_ns"],
            load=spec["load"],
            config=cfg,
            seed=seed,
            dp_trigger_indices=dp_triggers,
            baselines=baselines,
            metrics=Metrics(),
        )
        save_run_report(workload, run)
        return run, baselines

    if key not in _run_cache:
        _run_cache[key] = compute()
    return _run_cache[key]


def get_victims(workload: str, config: Optional[PrintQueueConfig] = None) -> Dict:
    """Sampled victim indices per depth band for a workload."""
    run, _ = get_run(workload, config=config)
    key = (workload, config or WORKLOADS[workload]["config"])
    if key not in _victim_cache:
        _victim_cache[key] = sample_victims_by_band(
            run.records, per_band=VICTIMS_PER_BAND
        )
    return _victim_cache[key]


def all_victim_indices(victims: Dict) -> Set[int]:
    out: Set[int] = set()
    for indices in victims.values():
        out.update(indices)
    return out


def scalar_reference(pq, intervals: Sequence) -> List:
    """The executable specification's answers for ``intervals``.

    ``pq.query`` is the compiled plan whether it is asked one interval or
    many, so a "vs scalar" comparison has to call the per-cell walk
    (``query_time_windows_scalar``, over the periodic snapshots) itself —
    this is what ties the paper figures to Algorithms 2-3.
    """
    return [query_time_windows_scalar(pq.analysis, iv) for iv in intervals]


def assert_plan_matches_scalar(run: ExperimentRun, indices: Sequence[int]) -> None:
    """Spot-check: the plan's answers for these victims, asynchronous and
    (where the run triggered them) data-plane, equal the scalar walk's,
    flow for flow and in the same iteration order."""
    intervals = [victim_interval(run.records[i]) for i in indices]
    planned = run.pq.query(intervals=intervals).estimates
    for i, (s, b) in enumerate(zip(scalar_reference(run.pq, intervals), planned)):
        assert list(s.items()) == list(b.items()), f"plan diverged at victim {i}"
    for i in indices:
        result = run.dp_results.get(i)
        if result is None:
            continue
        spec = query_time_windows_scalar(
            run.pq.analysis, result.interval, snapshots=[result.snapshot]
        )
        assert list(spec.items()) == list(result.estimate.items()), (
            f"data-plane answer diverged at victim {i}"
        )


#: JSON results written next to the benches; EXPERIMENTS.md references it.
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.json")

#: Per-workload RunReports written alongside results.json (observability
#: counters for the run each bench table was computed from).
REPORTS_DIR = os.path.join(os.path.dirname(__file__), "reports")


def save_run_report(name: str, run: ExperimentRun) -> Optional[str]:
    """Best-effort: save the run's RunReport as reports/<name>.json."""
    try:
        os.makedirs(REPORTS_DIR, exist_ok=True)
        path = os.path.join(REPORTS_DIR, f"{name}.json")
        run.report().save(path)
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
