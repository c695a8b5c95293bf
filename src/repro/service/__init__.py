"""The always-on diagnosis service (PrintQueue §2's operating mode).

Everything the offline harness runs to completion, this package runs
*continuously*: live ingest (a :class:`~repro.engine.ingest.IngestPipeline`
driven one kernel phase per turn inside an asyncio task, snapshots landing in a
shared :class:`~repro.store.SnapshotStore`) concurrent with query
serving over a local socket.  The robustness core:

* **admission control** (:mod:`repro.service.admission`) — a bounded
  request queue fronted by a token bucket; over-limit requests get an
  immediate typed :class:`~repro.errors.ServiceOverloadError` with a
  Retry-After hint instead of queueing unboundedly;
* **backpressure & graceful degradation** (:mod:`repro.service.degrade`)
  — declared stages (full → batch-only → coverage-reduced), entered one
  step at a time on queue-depth/p99 pressure and left hysteretically;
  reduced answers are *flagged* via the PR 4 coverage machinery, never
  silently wrong;
* **fault-tolerant serving** (:mod:`repro.service.ingest`) — ingest runs
  under :class:`~repro.faults.FaultInjector` profiles via the resilient
  read path; a supervisor restarts a crashed ingest task with bounded
  exponential backoff; shutdown drains in-flight queries against a
  deadline and flushes the store;
* **SLO tracking** (:mod:`repro.service.slo`) — per-request latency
  feeds p50/p99 targets and an error-budget burn rate, exported through
  the existing metrics/Prometheus path.

Zero-overhead invariant: nothing here is imported by the offline paths;
with no service running, in-process runs are bit-identical to before.
"""

from repro.service.admission import AdmissionController, TokenBucket
from repro.service.degrade import DegradationController, Stage, StageThreshold
from repro.service.ingest import IngestSupervisor, LiveIngest
from repro.service.slo import SLOTargets, SLOTracker
from repro.service.server import DiagnosisService, ServiceConfig, ServiceHarness

__all__ = [
    "AdmissionController",
    "TokenBucket",
    "DegradationController",
    "Stage",
    "StageThreshold",
    "IngestSupervisor",
    "LiveIngest",
    "SLOTargets",
    "SLOTracker",
    "DiagnosisService",
    "ServiceConfig",
    "ServiceHarness",
]
