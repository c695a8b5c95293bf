"""The measured surface: the only benchmark file that imports ``repro``.

Every other file here reaches the system through the names bound below,
so this list *is* the public surface the benchmark times.  A refactor
that renames or moves one of them needs its own ``benchmark`` PR that
rebinds it here and re-measures the baseline (see README.md).

The layers (``src/repro`` modules) and the calls that enter them:

* ``traffic``   — ``PoissonWorkload.generate_records`` (``.generate`` in
  the traced pass, to time generation apart from the FIFO)
* ``switch``    — ``fifo_record_batch`` (the second half of
  ``generate_records``)
* ``engine`` / ``core`` — ``PrintQueuePort`` + ``drive_printqueue(engine="fused")``
* ``store``     — ``MemoryStore`` / ``MmapStore`` / ``replay_analysis`` /
  ``replay_store``
* ``queryplan`` — ``PrintQueuePort.query`` (and the replayed
  ``AnalysisProgram``'s ``query_time_windows[_batch]`` / ``original_culprits``)
* ``service``   — ``ServiceConfig`` (+ ``Stage`` / ``StageThreshold``) /
  ``ServiceHarness`` / ``ServiceClient``, imported only by
  :func:`service_api` so offline workloads never load it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

_SRC = Path(__file__).resolve().parents[2] / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"benchmarks/e2e: no repro package under {_SRC}")
# The checkout's own source wins over any installed copy.
sys.path.insert(0, str(_SRC))

from repro.core.config import PrintQueueConfig  # noqa: E402
from repro.core.printqueue import PrintQueuePort  # noqa: E402
from repro.core.queries import QueryInterval  # noqa: E402
from repro.core.taxonomy import CulpritTaxonomy  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.experiments.evaluation import evaluate_async_queries  # noqa: E402
from repro.experiments.runner import drive_printqueue  # noqa: E402
from repro.experiments.sampling import sample_victims_by_band  # noqa: E402
from repro.obs import Metrics, RunReport  # noqa: E402
from repro.store import (  # noqa: E402
    MemoryStore,
    MmapStore,
    SnapshotStore,
    replay_analysis,
    replay_store,
)
from repro.switch.fastpath import fifo_record_batch  # noqa: E402
from repro.traffic.distributions import distribution_by_name  # noqa: E402
from repro.traffic.generator import PoissonWorkload, WorkloadConfig  # noqa: E402

__all__ = [
    "CulpritTaxonomy",
    "MemoryStore",
    "Metrics",
    "MmapStore",
    "PoissonWorkload",
    "PrintQueueConfig",
    "PrintQueuePort",
    "QueryInterval",
    "ReproError",
    "RunReport",
    "WorkloadConfig",
    "distribution_by_name",
    "drive_printqueue",
    "evaluate_async_queries",
    "fifo_record_batch",
    "replay_analysis",
    "replay_store",
    "sample_victims_by_band",
    "service_api",
    "new_port",
    "deterministic_counts",
    "stage_seconds",
    "wire_estimate",
]

#: the four ``pq_ingest_stage_*`` histograms a traced pass reads, keyed
#: by the ledger row their time is booked under.
STAGE_HISTOGRAMS = {
    "core.qm_write_back": "pq_ingest_stage_qm_write_back_ns",
    "core.absorb": "pq_ingest_stage_absorb_ns",
    "core.filter": "pq_ingest_stage_filter_ns",
    "store.encode": "pq_ingest_stage_encode_ns",
}


def service_api() -> Tuple[Any, Any, Any]:
    """``(service_config, ServiceHarness, ServiceClient)``, imported on demand.

    ``service_config(**fields)`` is ``ServiceConfig`` with the serve-ready
    defaults, except that the degradation ladder is held in ``NORMAL``.
    With the default entry thresholds (p99 >= 50 ms) the service's own
    live ingest trips ``BATCH_ONLY`` and then ``REDUCED`` within a second,
    so which stage a request lands in - not the code under test - would
    decide its cost, and every ``REDUCED`` answer is flagged degraded,
    which the benchmark counts as failed.  The ladder has its own tests;
    here it is disarmed and ``service.degraded`` must stay 0.
    """
    from repro.service import ServiceConfig, ServiceHarness, Stage, StageThreshold
    from repro.service.client import ServiceClient

    never = StageThreshold(queue_frac=2.0, p99_ms=float("inf"))

    def service_config(**fields: Any) -> Any:
        return ServiceConfig(
            thresholds={Stage.BATCH_ONLY: never, Stage.REDUCED: never}, **fields
        )

    return service_config, ServiceHarness, ServiceClient


def new_port(
    config: PrintQueueConfig,
    batch: Any,
    store: SnapshotStore,
    metrics: Optional[Metrics] = None,
) -> PrintQueuePort:
    """A fresh port wired as ``simulate_workload`` wires it: the measured
    mean inter-departure time is the coefficient ``d``, and on-demand
    reads are free (the read-cost model is not on this path)."""
    deq = batch.deq_timestamp
    d_ns = (int(deq[-1]) - int(deq[0])) / (len(batch) - 1)
    return PrintQueuePort(
        config, d_ns=d_ns, model_dp_read_cost=False, metrics=metrics, store=store
    )


def deterministic_counts(pq: PrintQueuePort) -> Dict[str, int]:
    """The counts that must repeat exactly for one seed, from the RunReport."""
    report = RunReport.from_port(pq)
    view = report.deterministic_view()
    windows = view["time_windows"]
    return {
        "traffic.packets": view["packets"]["seen"],
        "core.polls": view["banks"]["periodic_flips"],
        "core.tw_updates": windows["updates"],
        "core.tw_passes": windows["passes"],
        "core.tw_drops": windows["drops"],
        "store.tw_snapshots": view["store"]["tw_snapshots"],
        "store.qm_snapshots": view["store"]["qm_snapshots"],
        "store.bytes": report.section("store_backend")["bytes_total"],
    }


def stage_seconds(metrics: Metrics) -> Tuple[Dict[str, float], int]:
    """``({ledger row: seconds}, engine steps)`` from the stage histograms."""
    seconds: Dict[str, float] = {}
    steps = 0
    for row, name in STAGE_HISTOGRAMS.items():
        histogram = metrics.find(name)
        seconds[row] = histogram.sum / 1e9 if histogram is not None else 0.0
        if row == "core.absorb" and histogram is not None:
            steps = histogram.count
    return seconds, steps


def wire_estimate(estimate: Any) -> Dict[str, float]:
    """An in-process estimate keyed the way the service puts it on the wire."""
    return {str(flow): value for flow, value in estimate.items()}
