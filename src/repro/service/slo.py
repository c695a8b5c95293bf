"""Service-level objectives: latency targets and error-budget burn.

The tracker keeps an exact sliding window of recent request latencies
(for the degradation controller's p99 signal, read once per request, so
the window is also kept sorted incrementally) alongside cumulative
tallies (for the error budget), and mirrors both into a
:class:`~repro.obs.metrics.Metrics` registry so the service section
rides the existing RunReport/Prometheus export path.

A request *violates* the SLO when it errors or exceeds the p99 latency
target; the error budget is the fraction of requests allowed to violate.
``burn_rate > 1`` means the service is spending budget faster than the
target allows — the signal an operator alerts on.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.obs.metrics import Metrics


@dataclass(frozen=True)
class SLOTargets:
    """Latency/availability targets for the query front door."""

    p50_ms: float = 5.0
    p99_ms: float = 50.0
    #: fraction of requests allowed to violate (error or miss p99).
    error_budget: float = 0.01
    #: sliding-window size for the live percentile estimates.
    window: int = 512


class SLOTracker:
    """Observe per-request latencies against :class:`SLOTargets`."""

    def __init__(
        self, targets: Optional[SLOTargets] = None, metrics: Optional[Metrics] = None
    ) -> None:
        self.targets = targets or SLOTargets()
        self.metrics = metrics
        self._window: Deque[float] = deque(maxlen=self.targets.window)
        #: the same samples, ascending.
        self._sorted: List[float] = []
        self.total = 0
        self.errors = 0
        self.violations = 0
        if metrics is not None:
            self._obs_latency = metrics.histogram("pq_service_latency_us")
            self._obs_requests = metrics.counter("pq_service_requests_total")
            self._obs_errors = metrics.counter("pq_service_errors_total")
            self._obs_violations = metrics.counter("pq_service_slo_violations_total")
        else:
            self._obs_latency = None
            self._obs_requests = None
            self._obs_errors = None
            self._obs_violations = None

    def observe(self, latency_ms: float, ok: bool = True) -> None:
        """Record one served request (errors count against the budget)."""
        self.total += 1
        if len(self._window) == self._window.maxlen:
            evicted = self._window[0]
            del self._sorted[bisect.bisect_left(self._sorted, evicted)]
        self._window.append(latency_ms)
        bisect.insort(self._sorted, latency_ms)
        violated = (not ok) or latency_ms > self.targets.p99_ms
        if not ok:
            self.errors += 1
        if violated:
            self.violations += 1
        if self._obs_requests is not None:
            self._obs_requests.inc()
            self._obs_latency.observe(max(0, int(latency_ms * 1000)))
            if not ok:
                self._obs_errors.inc()
            if violated:
                self._obs_violations.inc()

    def percentile(self, q: float) -> float:
        """Exact q-quantile (nearest-rank) over the sliding window."""
        ordered = self._sorted
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.999999) - 1))
        return ordered[rank]

    @property
    def burn_rate(self) -> float:
        """Error-budget burn: observed violation fraction ÷ budget.

        1.0 means violations land exactly on budget; above 1 the budget
        is being spent faster than the target allows.
        """
        if self.total == 0:
            return 0.0
        frac = self.violations / self.total
        budget = max(self.targets.error_budget, 1e-9)
        return frac / budget

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time view for status responses and bench records."""
        return {
            "total": self.total,
            "errors": self.errors,
            "violations": self.violations,
            "p50_ms": self.percentile(0.5),
            "p99_ms": self.percentile(0.99),
            "target_p50_ms": self.targets.p50_ms,
            "target_p99_ms": self.targets.p99_ms,
            "error_budget": self.targets.error_budget,
            "burn_rate": self.burn_rate,
        }
