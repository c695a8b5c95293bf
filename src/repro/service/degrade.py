"""Backpressure: a declared, hysteretic degradation state machine.

Stages are ordered and *declared up front*; under pressure the service
moves down the ladder one stage at a time, and climbs back up only
after the pressure signals have stayed well below the entry thresholds
for a hold period (hysteresis, so a noisy boundary load cannot flap the
service between modes).  Guarantees the property suite pins down:

* the stage index changes by at most one per observation — no stage is
  ever skipped in either direction;
* with sustained low load the controller always returns to ``NORMAL``;
* answers produced in a degraded stage are *flagged* as such by the
  serving layer (see ``DiagnosisService._execute``) — degradation is
  visible, never a silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Metrics


class Stage(IntEnum):
    """The declared degradation ladder, in escalation order."""

    #: full service: the compiled plan over every periodic snapshot.
    NORMAL = 0
    #: answers exactly as NORMAL (same plan, same numbers); only the wire
    #: ``stage`` field says the ladder has left NORMAL.
    BATCH_ONLY = 1
    #: answers run against only the newest snapshots; truncated coverage
    #: is reported per answer as a fault-style ``CoverageReport``.
    REDUCED = 2


@dataclass(frozen=True)
class StageThreshold:
    """Entry condition for one stage: either signal crossing trips it."""

    queue_frac: float
    p99_ms: float


#: Default entry thresholds, keyed by the stage being *entered*.
DEFAULT_THRESHOLDS: Dict[Stage, StageThreshold] = {
    Stage.BATCH_ONLY: StageThreshold(queue_frac=0.5, p99_ms=50.0),
    Stage.REDUCED: StageThreshold(queue_frac=0.8, p99_ms=200.0),
}


class DegradationController:
    """Hysteretic stage controller driven by (queue_frac, p99_ms)."""

    def __init__(
        self,
        thresholds: Optional[Dict[Stage, StageThreshold]] = None,
        recover_frac: float = 0.5,
        calm_hold: int = 3,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.thresholds = dict(thresholds or DEFAULT_THRESHOLDS)
        for stage in (Stage.BATCH_ONLY, Stage.REDUCED):
            if stage not in self.thresholds:
                raise ValueError(f"missing entry threshold for {stage.name}")
        if not 0.0 < recover_frac <= 1.0:
            raise ValueError(f"recover_frac must be in (0, 1], got {recover_frac}")
        if calm_hold < 1:
            raise ValueError(f"calm_hold must be >= 1, got {calm_hold}")
        self.recover_frac = recover_frac
        self.calm_hold = calm_hold
        self.metrics = metrics
        self.stage = Stage.NORMAL
        self._calm = 0
        #: audit trail of (from, to) transitions, in order.
        self.transitions: List[Tuple[Stage, Stage]] = []

    def _crossed(self, threshold: StageThreshold, queue_frac: float, p99_ms: float) -> bool:
        return queue_frac >= threshold.queue_frac or p99_ms >= threshold.p99_ms

    def _calm_enough(self, queue_frac: float, p99_ms: float) -> bool:
        """Both signals well below the *current* stage's entry threshold."""
        threshold = self.thresholds[self.stage]
        return (
            queue_frac < self.recover_frac * threshold.queue_frac
            and p99_ms < self.recover_frac * threshold.p99_ms
        )

    def observe(self, queue_frac: float, p99_ms: float) -> Stage:
        """Feed one pressure sample; returns the (possibly new) stage.

        Moves at most one stage per call, escalation taking priority
        over recovery.  Recovery needs ``calm_hold`` *consecutive* calm
        samples; any loud sample resets the hold.
        """
        if self.stage < Stage.REDUCED:
            entering = Stage(self.stage + 1)
            if self._crossed(self.thresholds[entering], queue_frac, p99_ms):
                self._transition(entering)
                self._calm = 0
                return self.stage
        if self.stage > Stage.NORMAL:
            if self._calm_enough(queue_frac, p99_ms):
                self._calm += 1
                if self._calm >= self.calm_hold:
                    self._transition(Stage(self.stage - 1))
                    self._calm = 0
            else:
                self._calm = 0
        return self.stage

    def _transition(self, to: Stage) -> None:
        self.transitions.append((self.stage, to))
        if self.metrics is not None:
            if to > self.stage:
                self.metrics.counter(
                    "pq_service_degradations_total", to=to.name
                ).inc()
            self.metrics.gauge("pq_service_stage").set(int(to))
        self.stage = to
