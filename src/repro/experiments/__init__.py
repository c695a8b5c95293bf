"""Shared experiment harness used by the benchmarks and examples.

* :mod:`~repro.experiments.runner` — generate a workload, push it through
  the FIFO fast path, drive PrintQueue over the dequeue-event stream,
  and keep the lossless ground truth.
* :mod:`~repro.experiments.sampling` — victim selection per queue-depth
  band (the 1k-2k ... >20k buckets of Figure 9).
* :mod:`~repro.experiments.evaluation` — score asynchronous queries
  against the taxonomy oracle.
"""

from repro.experiments.runner import (
    ExperimentRun,
    drive_printqueue,
    run_trace_through_fifo,
    simulate_workload,
)
from repro.experiments.sampling import DEPTH_BANDS, band_label, sample_victims_by_band
from repro.experiments.evaluation import evaluate_async_queries

__all__ = [
    "ExperimentRun",
    "simulate_workload",
    "run_trace_through_fifo",
    "drive_printqueue",
    "DEPTH_BANDS",
    "band_label",
    "sample_victims_by_band",
    "evaluate_async_queries",
]
