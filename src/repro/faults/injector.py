"""The fault injector: seeded outcome draws + register-read tampering.

One injector owns one ``random.Random`` seeded from its plan, so a run's
fault sequence is a pure function of (plan, event stream).  Draws happen
only at control-plane decision points — poll instants and read attempts —
which both ingest engines reach in the same order, so the scalar oracle
and the pipeline inject identical faults (the equivalence suite asserts it).

The injector also keeps the authoritative *injected* tally: every fault
it actually materialises increments ``injected[kind]`` (and the
``pq_faults_injected_total`` counter when a metrics registry is
attached).  The resilient poller's detection/quarantine counts are
recorded separately in its :class:`~repro.faults.resilience.FaultLog`,
so reports can reconcile "what was injected" against "what was caught".
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.filtering import FilteredWindow
from repro.faults.plan import FaultPlan
from repro.obs.metrics import Metrics

if TYPE_CHECKING:
    from repro.core.queuemonitor import QueueMonitorSnapshot

__all__ = ["FaultInjector", "as_injector"]

#: Outcome tags for poll / read-attempt draws.
OK = "ok"
DROP = "drop"
DELAY = "delay"
RPC_ERROR = "rpc_error"
TORN = "torn"
CORRUPT = "corrupt"
REGRESS = "regress"


class FaultInjector:
    """Draw fault outcomes and tamper register reads, deterministically."""

    def __init__(self, plan: FaultPlan, metrics: Optional[Metrics] = None) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.metrics = metrics
        #: authoritative injected-fault tally, by kind (always on).
        self.injected: Dict[str, int] = {}

    def _count(self, kind: str, n: int = 1) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + n
        if self.metrics is not None:
            self.metrics.counter("pq_faults_injected_total", kind=kind).inc(n)

    # -- outcome draws (one rng draw per opportunity) ----------------------

    def poll_outcome(self) -> str:
        """Fate of one due periodic poll: ok / drop / delay."""
        plan = self.plan
        if plan.poll_drop_rate == 0.0 and plan.poll_delay_rate == 0.0:
            return OK
        u = self.rng.random()
        if u < plan.poll_drop_rate:
            self._count("polls_dropped")
            return DROP
        if u < plan.poll_drop_rate + plan.poll_delay_rate:
            self._count("polls_delayed")
            return DELAY
        return OK

    def read_attempt_outcome(self) -> str:
        """Fate of one register-read attempt: ok / rpc_error / torn / corrupt."""
        plan = self.plan
        if (
            plan.rpc_failure_rate == 0.0
            and plan.torn_read_rate == 0.0
            and plan.corrupt_cell_rate == 0.0
        ):
            return OK
        u = self.rng.random()
        if u < plan.rpc_failure_rate:
            self._count("rpc_failures")
            return RPC_ERROR
        if u < plan.rpc_failure_rate + plan.torn_read_rate:
            return TORN
        if u < (
            plan.rpc_failure_rate + plan.torn_read_rate + plan.corrupt_cell_rate
        ):
            return CORRUPT
        return OK

    def qm_poll_outcome(self) -> str:
        """Fate of one standalone queue-monitor poll: ok / drop / regress."""
        plan = self.plan
        if plan.qm_drop_rate == 0.0 and plan.qm_seq_regression_rate == 0.0:
            return OK
        u = self.rng.random()
        if u < plan.qm_drop_rate:
            self._count("qm_polls_dropped")
            return DROP
        if u < plan.qm_drop_rate + plan.qm_seq_regression_rate:
            return REGRESS
        return OK

    # -- read tampering ----------------------------------------------------

    def tamper_filtered(
        self, windows: List[FilteredWindow], k: int, kind: str
    ) -> Tuple[List[FilteredWindow], int]:
        """Damage one window of a filtered read; returns (copy, cells hit).

        ``kind == "torn"`` shifts a contiguous slice of cells one full
        window period into the past (stale cells from the previous
        cycle — a read that raced the ring-buffer wrap).  ``"corrupt"``
        rewrites the slice's TTS beyond the window's reference point
        (impossible cycle bits).  Both land outside the
        ``(reference - 2^k, reference]`` range Algorithm 3 guarantees,
        so snapshot validation detects every tampered cell.  The input
        windows are never mutated — retries re-tamper from pristine
        copies.  An all-empty read has nothing to damage; the fault is
        a no-op and is *not* counted as injected.
        """
        candidates = [i for i, fw in enumerate(windows) if fw.cell_count]
        if not candidates:
            return windows, 0
        wi = candidates[self.rng.randrange(len(candidates))]
        fw = windows[wi]
        n = fw.cell_count
        m = min(n, 1 + self.rng.randrange(self.plan.max_affected_cells))
        start = self.rng.randrange(n - m + 1)
        tts = fw.tts_array.copy()
        if kind == TORN:
            tts[start : start + m] -= np.int64(1 << k)
        else:
            offset = 1 + self.rng.randrange(1 << k)
            tts[start : start + m] = np.int64(fw.reference_tts + offset)
        tampered = fw.with_columns(tts, fw.flow_idx)
        out = list(windows)
        out[wi] = tampered
        self._count("reads_torn" if kind == TORN else "reads_corrupt")
        self._count("cells_tampered", m)
        return out, m

    def regress_qm(self, snapshot: "QueueMonitorSnapshot", floor_seq: int) -> bool:
        """Regress a queue-monitor snapshot's sequence numbers.

        Rewrites every set entry so the snapshot's maximum sequence
        number falls *below* ``floor_seq`` (the largest the control
        plane has already accepted) — the anomaly the monotonicity
        validator exists for.  Returns False (fault not injected, not
        counted) when there is no prior floor to regress below or the
        snapshot holds no entries.
        """
        from repro.core.queuemonitor import _UNSET

        peak = snapshot.max_seq
        if peak == _UNSET or floor_seq <= 0:
            return False
        delta = peak - (floor_seq - 1)
        if delta <= 0:
            delta = 1 + self.rng.randrange(peak)
        # delta > 0, so clamping at _UNSET also leaves unset entries unset.
        # Rebind, never write in place: a live snapshot's pages are shared
        # with its neighbours, a decoded one's are views into the store.
        snapshot.chunks = tuple(
            (np.maximum(_UNSET, inc - delta), idx, np.maximum(_UNSET, dec - delta))
            for inc, idx, dec in snapshot.chunks
        )
        snapshot.seq_stamp = None
        self._count("qm_seq_regressions")
        return True


def as_injector(
    faults: Union[None, str, FaultPlan, "FaultInjector"],
    metrics: Optional[Metrics] = None,
) -> FaultInjector:
    """Coerce a profile name / plan / injector into a ``FaultInjector``;
    None is the zero-rate ``"none"`` profile."""
    if isinstance(faults, FaultInjector):
        return faults
    faults = faults or "none"
    if isinstance(faults, str):
        from repro.faults.plan import profile

        faults = profile(faults)
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults, metrics=metrics)
    raise TypeError(
        f"faults must be a profile name, FaultPlan, or FaultInjector; "
        f"got {type(faults).__name__}"
    )
