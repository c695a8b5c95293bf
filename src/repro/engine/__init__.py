"""The ingest pipeline and the query plan.

``repro.engine`` is the performance layer between the vectorised FIFO
fast path and PrintQueue's measurement structures:

* :class:`~repro.engine.ingest.IngestPipeline` is the one production
  ingest path: it takes a dequeue log as a structured record array
  (:class:`~repro.switch.records.RecordBatch`; object logs are converted
  on entry), slices the merged enqueue/dequeue event stream into
  poll-boundary-aligned batches and drives a
  :class:`~repro.core.printqueue.PrintQueuePort` through the
  array-at-a-time ``absorb_indexed`` / ``apply_batch`` kernels — no
  per-packet Python objects in the hot loop, and bit-identical
  snapshots, counters and estimates to the scalar oracle
  (``drive_printqueue(engine="scalar")``).
* :class:`~repro.engine.queryplan.CompiledQueryPlan` is the same
  treatment for the query side: snapshots compile once into columnar
  (TTS array + interned flow index) form and batched multi-victim
  queries run as ``searchsorted`` slices with in-order per-flow
  accumulation — numerically identical to the scalar reference walk.
"""

from repro.engine.ingest import IngestPipeline
from repro.engine.queryplan import (
    CompiledQueryPlan,
    CompiledSnapshot,
    CompiledWindow,
    PlanBuildStats,
    compile_snapshot,
)

__all__ = [
    "IngestPipeline",
    "CompiledQueryPlan",
    "CompiledSnapshot",
    "CompiledWindow",
    "PlanBuildStats",
    "compile_snapshot",
]
