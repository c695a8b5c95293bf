"""``repro.faults`` — deterministic fault injection + the resilient read path.

The paper's control plane polls switch registers *while the data plane
keeps writing* (§6); real deployments add missed poll deadlines, RPC
failures, torn or bit-corrupted register reads, and queue-monitor
sequence anomalies on top.  This package makes those hazards injectable
(seeded, reproducible, off by default) and makes the control plane
survive them:

* :class:`FaultPlan` / :data:`PROFILES` — seedable scenario
  descriptions (``none``, ``flaky-rpc``, ``torn-reads``,
  ``lossy-control``, ``qm-regression``, ``chaos``).
* :class:`FaultInjector` — draws fault outcomes from a seeded RNG and
  tampers register reads; keeps the authoritative injected-fault tally.
* :class:`ResilientPoller` — every port's read path: bounded retry with
  exponential backoff, snapshot validation, quarantine-instead-of-crash,
  and deadline-aware catch-up for delayed polls.
* :class:`FaultLog` / :class:`CoverageReport` / :class:`QuarantineRecord`
  — what was lost, what was caught, and what a given query could not
  see (the ``degraded`` surface on query results).

Attach a plan with ``PrintQueuePort(..., faults="chaos")`` (or a
``FaultPlan`` / ``FaultInjector``), ``simulate_workload(...,
faults=...)``, or ``repro run --faults chaos``.  ``faults=None`` (the
default) is the zero-rate ``none`` profile: the same poller runs, draws
nothing, and every output — port state, answers (no coverage report),
run report — is bit-identical to a perfect channel, the zero-overhead
invariant the test suite asserts.
"""

from repro.faults.injector import FaultInjector, as_injector
from repro.faults.plan import PROFILES, FaultPlan, profile, profile_names
from repro.faults.resilience import (
    CoverageReport,
    FaultLog,
    QuarantineRecord,
    ResilientPoller,
    validate_filtered_windows,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "ResilientPoller",
    "FaultLog",
    "CoverageReport",
    "QuarantineRecord",
    "PROFILES",
    "profile",
    "profile_names",
    "as_injector",
    "validate_filtered_windows",
]
