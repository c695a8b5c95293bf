"""The control-plane read path: retry, validate, quarantine.

Every port reads its registers through one :class:`ResilientPoller`;
without ``faults=`` it runs the zero-rate ``"none"`` plan, which draws
nothing and stores exactly what a perfect channel would.  Every
control-plane read goes through the same discipline:

1. **Bounded retry with exponential backoff** — failed RPCs and reads
   that fail validation are retried up to :data:`MAX_ATTEMPTS` times;
   backoffs (:data:`BACKOFF_NS`) are modelled nanoseconds recorded in
   the log and the ``pq_fault_retry_backoff_ns`` histogram (they do not
   advance simulated time — the poll's read instant stays put).
2. **Snapshot validation** — every read is checked against the
   invariants Algorithm 3 guarantees: retained cell TTS values must lie
   in ``(reference − 2^k, reference]`` (cycle-ID consistency), and
   queue-monitor sequence numbers must never regress below what the
   control plane already accepted.
3. **Quarantine instead of crash** — cells that still fail validation
   after the retry budget are removed from the snapshot (recorded as
   :class:`QuarantineRecord`), so a corrupted read yields an honest
   undercount plus a ``degraded`` flag, never a wrong attribution or an
   exception.  Quarantining a *stored* snapshot goes through
   ``AnalysisProgram.quarantine_snapshot_windows`` so compiled-plan
   caches invalidate.
4. **Deadline-aware catch-up** — a delayed poll fires late but still
   reads its bank (nothing lost); a dropped poll's set period is gone
   and is recorded as a lost range so queries over it say so.

The filter and encode work itself is the analysis program's
(``read_frozen_bank``, ``store_periodic_snapshot``, ``qm_poll``), so the
stage timings are the same whatever the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.filtering import FilteredWindow
from repro.faults.injector import DELAY, DROP, OK, REGRESS, RPC_ERROR, FaultInjector
from repro.obs.metrics import Metrics

if TYPE_CHECKING:
    from repro.core.analysis import TimeWindowSnapshot
    from repro.core.printqueue import PrintQueuePort

__all__ = [
    "MAX_ATTEMPTS",
    "BACKOFF_NS",
    "QuarantineRecord",
    "CoverageReport",
    "FaultLog",
    "ResilientPoller",
    "validate_filtered_windows",
]


#: Attempts per control-plane read: the first try plus up to three retries.
MAX_ATTEMPTS = 4
#: Modelled backoff before retry ``n`` (``BACKOFF_NS[n - 1]``): doubling
#: from 1 µs, capped at 1 ms.
BACKOFF_NS: Tuple[int, ...] = tuple(
    min(1_000_000, 1_000 << n) for n in range(MAX_ATTEMPTS - 1)
)


@dataclass(frozen=True)
class QuarantineRecord:
    """Cells (or a whole monitor snapshot) removed by validation."""

    read_time_ns: int
    source: str  # "periodic" | "data-plane" | "queue-monitor"
    kind: str  # "torn" | "corrupt" | "rpc" | "qm-regression"
    window_index: Optional[int] = None
    cells: int = 0
    #: the [start, end) span the damaged window could have spoken for
    #: (None when unknown, e.g. an empty window or a monitor snapshot).
    span_ns: Optional[Tuple[int, int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "read_time_ns": self.read_time_ns,
            "source": self.source,
            "kind": self.kind,
            "window_index": self.window_index,
            "cells": self.cells,
            "span_ns": list(self.span_ns) if self.span_ns else None,
        }


@dataclass(frozen=True)
class CoverageReport:
    """What a degraded query could *not* see.

    Attached to :class:`~repro.core.printqueue.QueryResult` when fault
    injection is active: ``lost_ns`` are the parts of the query interval
    whose polls were lost outright, ``quarantined`` the validation
    quarantines whose spans overlap it, and ``qm_lost_ns`` the lost
    queue-monitor poll instants that were closer to the query point than
    the snapshot actually used.
    """

    interval: Optional[Tuple[int, int]] = None
    lost_ns: Tuple[Tuple[int, int], ...] = ()
    quarantined: Tuple[QuarantineRecord, ...] = ()
    qm_lost_ns: Tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.lost_ns or self.quarantined or self.qm_lost_ns)

    @property
    def lost_total_ns(self) -> int:
        return sum(end - start for start, end in self.lost_ns)

    def describe(self) -> str:
        if not self.degraded:
            return "full coverage"
        parts = []
        if self.lost_ns:
            parts.append(
                f"{len(self.lost_ns)} lost range(s), {self.lost_total_ns} ns"
            )
        if self.quarantined:
            cells = sum(r.cells for r in self.quarantined)
            parts.append(
                f"{len(self.quarantined)} quarantine(s), {cells} cell(s)"
            )
        if self.qm_lost_ns:
            parts.append(f"{len(self.qm_lost_ns)} lost monitor poll(s)")
        return "degraded: " + "; ".join(parts)


def _overlaps(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return min(a[1], b[1]) > max(a[0], b[0])


@dataclass
class FaultLog:
    """What the resilient read path observed, detected, and recovered.

    The injector's ``injected`` tally says what went wrong; this log
    says what the control plane did about it.  Both are deterministic
    functions of (plan, event stream), identical across ingest engines,
    and exported under the RunReport ``faults`` section.
    """

    lost_ranges: List[Tuple[int, int]] = field(default_factory=list)
    quarantines: List[QuarantineRecord] = field(default_factory=list)
    qm_lost_ns: List[int] = field(default_factory=list)
    lost_polls: int = 0
    delayed_polls: int = 0
    retries: int = 0
    retry_backoff_ns_total: int = 0
    retry_exhausted: int = 0
    reads_recovered: int = 0
    qm_quarantined: int = 0
    dp_read_failures: int = 0

    @property
    def quarantined_cells(self) -> int:
        return sum(r.cells for r in self.quarantines)

    def coverage_for(self, start_ns: int, end_ns: int) -> CoverageReport:
        """Degradation report for a time-window query over [start, end)."""
        lost = tuple(
            (max(s, start_ns), min(e, end_ns))
            for s, e in self.lost_ranges
            if _overlaps((s, e), (start_ns, end_ns))
        )
        quarantined = tuple(
            r
            for r in self.quarantines
            if r.span_ns is not None and _overlaps(r.span_ns, (start_ns, end_ns))
        )
        return CoverageReport(
            interval=(start_ns, end_ns), lost_ns=lost, quarantined=quarantined
        )

    def dp_coverage_for(
        self, read_time_ns: int, start_ns: int, end_ns: int
    ) -> CoverageReport:
        """Degradation report for one accepted on-demand read.

        An on-demand query answers from exactly one fresh register read,
        so only quarantines from *that* read (matched by read time and
        source) can degrade it — historical lost polls are irrelevant.
        """
        quarantined = tuple(
            r
            for r in self.quarantines
            if r.source == "data-plane"
            and r.read_time_ns == read_time_ns
            and (
                r.span_ns is None
                or _overlaps(r.span_ns, (start_ns, end_ns))
            )
        )
        return CoverageReport(
            interval=(start_ns, end_ns), quarantined=quarantined
        )

    def qm_coverage_for(self, at_ns: int, used_time_ns: int) -> CoverageReport:
        """Degradation report for a queue-monitor query at ``at_ns``.

        The query answers from the snapshot nearest the query point, so
        it is degraded exactly when a *lost* monitor poll was strictly
        nearer than the snapshot actually used.
        """
        used_dist = abs(used_time_ns - at_ns)
        nearer = tuple(
            t for t in self.qm_lost_ns if abs(t - at_ns) < used_dist
        )
        return CoverageReport(interval=(at_ns, at_ns + 1), qm_lost_ns=nearer)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "lost_polls": self.lost_polls,
            "delayed_polls": self.delayed_polls,
            "lost_ranges": [list(r) for r in self.lost_ranges],
            "lost_ns_total": sum(e - s for s, e in self.lost_ranges),
            "retries": self.retries,
            "retry_backoff_ns_total": self.retry_backoff_ns_total,
            "retry_exhausted": self.retry_exhausted,
            "reads_recovered": self.reads_recovered,
            "quarantined_windows": len(
                [r for r in self.quarantines if r.window_index is not None]
            ),
            "quarantined_cells": self.quarantined_cells,
            "quarantines": [r.to_dict() for r in self.quarantines],
            "qm_snapshots_quarantined": self.qm_quarantined,
            "qm_polls_lost": len(self.qm_lost_ns),
            "dp_read_failures": self.dp_read_failures,
        }


def validate_filtered_windows(
    windows: List[FilteredWindow], k: int
) -> Tuple[List[FilteredWindow], List[Tuple[int, int]]]:
    """Check Algorithm 3's cycle-ID/TTS invariant; quarantine violators.

    Every retained cell of window ``i`` must carry a TTS in
    ``(reference − 2^k, reference]``: anything below is a stale cell the
    filter should have removed (a torn read), anything above carries
    cycle bits from the future (corruption).  Returns the cleaned
    windows (violating cells removed, everything else untouched) and a
    ``(window_index, bad_cell_count)`` list; an empty list means the
    read validated and the input is returned as-is.
    """
    violations: List[Tuple[int, int]] = []
    cleaned = list(windows)
    for i, fw in enumerate(windows):
        if fw.reference_tts is None:
            continue
        tts = fw.tts_array
        ref = fw.reference_tts
        bad = (tts <= ref - (1 << k)) | (tts > ref)
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            continue
        keep = ~bad
        cleaned[i] = fw.with_columns(tts[keep], fw.flow_idx[keep])
        violations.append((fw.window_index, n_bad))
    return cleaned, violations


class ResilientPoller:
    """The poll / on-demand-read path of one ``PrintQueuePort``.

    Every port builds one; it owns the injector and the
    :class:`FaultLog`.  The port's one poll loop calls it at the same
    logical instants from both ingest engines, so fault draws and
    outcomes are engine-independent.
    """

    def __init__(
        self,
        port: "PrintQueuePort",
        injector: FaultInjector,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.port = port
        self.injector = injector
        self.log = FaultLog()
        self.metrics = metrics
        #: fire time of a delayed (pending) full poll, or None.
        self.pending_full_ns: Optional[int] = None
        #: the deadline the pending poll originally missed.
        self._pending_due_ns: Optional[int] = None

    # -- retry bookkeeping -------------------------------------------------

    def _record_retry(self, attempt: int) -> None:
        backoff = BACKOFF_NS[attempt - 1]
        self.log.retries += 1
        self.log.retry_backoff_ns_total += backoff
        if self.metrics is not None:
            # looked up on first use, so a fault-free registry holds none
            self.metrics.counter("pq_faults_retries_total").inc()
            self.metrics.histogram("pq_fault_retry_backoff_ns").observe(backoff)

    # -- periodic (full) polls ---------------------------------------------

    def poll_full(self, due_ns: int) -> None:
        """One due periodic poll, with drop/delay/read-fault handling."""
        outcome = self.injector.poll_outcome()
        if outcome == DROP:
            self._drop_poll(due_ns)
            return
        if outcome == DELAY:
            config = self.port.config
            slip = (
                self.injector.plan.poll_delay_ns
                if self.injector.plan.poll_delay_ns is not None
                else config.set_period_ns // 2
            )
            slip = max(1, min(slip, config.set_period_ns - 1))
            self.pending_full_ns = due_ns + slip
            self._pending_due_ns = due_ns
            self.log.delayed_polls += 1
            return
        self._read_and_store(due_ns)

    def fire_pending(self) -> None:
        """Deadline-aware catch-up: run the delayed poll at its fire time."""
        fire = self.pending_full_ns
        assert fire is not None
        self.pending_full_ns = None
        self._pending_due_ns = None
        self._read_and_store(fire)

    def finalize(self, now_ns: int) -> None:
        """End of run: a still-pending delayed poll is subsumed by the
        operator-driven final flush (its bank never flipped, so the
        final ``periodic_poll`` reads everything it would have)."""
        self.pending_full_ns = None
        self._pending_due_ns = None

    def _drop_poll(self, due_ns: int) -> None:
        """A poll that missed its deadline entirely: the hardware flip
        cadence continues, the frozen content is overwritten unread —
        that set period of time-window data (and the monitor snapshot
        that rode along) is lost."""
        analysis = self.port.analysis
        lost_from = analysis._active_since_ns
        analysis.tw_banks.periodic_flip()
        analysis._active_since_ns = due_ns
        if due_ns > lost_from:
            self.log.lost_ranges.append((lost_from, due_ns))
        self.log.lost_polls += 1
        self.log.qm_lost_ns.append(due_ns)

    def _read_and_store(self, read_ns: int) -> None:
        """Flip + read the frozen bank with retry/validate/quarantine."""
        analysis = self.port.analysis
        windows, failed_attempts = self._read_with_retries(
            analysis.read_frozen_bank(),
            read_ns,
            analysis._active_since_ns,
            source="periodic",
        )
        if windows is None:
            # every attempt failed at the RPC layer: the frozen bank is
            # overwritten by the next flip before a read lands.
            lost_from = analysis._active_since_ns
            analysis._active_since_ns = read_ns
            if read_ns > lost_from:
                self.log.lost_ranges.append((lost_from, read_ns))
            self.log.lost_polls += 1
            self.log.qm_lost_ns.append(read_ns)
            return
        if failed_attempts:
            self.log.reads_recovered += 1
        analysis.store_periodic_snapshot(read_ns, windows)

    def _read_with_retries(
        self,
        pristine: List[FilteredWindow],
        read_ns: int,
        valid_from_ns: int,
        source: str,
    ) -> Tuple[Optional[List[FilteredWindow]], int]:
        """The shared attempt loop: returns (windows, failed_attempts).

        ``windows`` is the pristine read on a clean attempt, the
        quarantined remainder when the retry budget ran out on a
        torn/corrupt read, or ``None`` when every attempt failed at the
        RPC layer (nothing was read at all).
        """
        injector = self.injector
        k = self.port.config.k
        failed = 0
        for attempt in range(1, MAX_ATTEMPTS + 1):
            outcome = injector.read_attempt_outcome()
            if outcome == OK:
                return pristine, failed
            failed += 1
            if outcome == RPC_ERROR:
                if attempt < MAX_ATTEMPTS:
                    self._record_retry(attempt)
                continue
            # torn / corrupt: the read "succeeded" but validation fails.
            tampered, n_cells = injector.tamper_filtered(pristine, k, outcome)
            if n_cells == 0:
                # nothing to damage in an empty read — it validates.
                return pristine, failed - 1
            cleaned, violations = validate_filtered_windows(tampered, k)
            if attempt < MAX_ATTEMPTS:
                self._record_retry(attempt)
                continue
            # retry budget exhausted: quarantine what validation caught.
            self.log.retry_exhausted += 1
            for window_index, n_bad in violations:
                span = pristine[window_index].coverage_ns(k)
                if span is not None:
                    span = (max(span[0], valid_from_ns), span[1])
                self.log.quarantines.append(
                    QuarantineRecord(
                        read_time_ns=read_ns,
                        source=source,
                        kind=outcome,
                        window_index=window_index,
                        cells=n_bad,
                        span_ns=span,
                    )
                )
            return cleaned, failed
        # all attempts were RPC failures
        self.log.retry_exhausted += 1
        return None, failed

    # -- standalone queue-monitor polls --------------------------------------

    def poll_qm(self, due_ns: int) -> None:
        """One due standalone monitor poll, with drop/regression handling."""
        analysis = self.port.analysis
        outcome = self.injector.qm_poll_outcome()
        if outcome == DROP:
            self.log.qm_lost_ns.append(due_ns)
            return
        if outcome == REGRESS:
            read = analysis.queue_monitor.snapshot(due_ns)
            floor = analysis.qm_max_seq
            if self.injector.regress_qm(read, floor) and read.max_seq < floor:
                # §5's counter only moves forward: a read peaking below
                # what was already stored is quarantined, never stored.
                self.log.qm_quarantined += 1
                self.log.qm_lost_ns.append(due_ns)
                self.log.quarantines.append(
                    QuarantineRecord(
                        read_time_ns=due_ns,
                        source="queue-monitor",
                        kind="qm-regression",
                    )
                )
                return
            # nothing to regress (no floor yet, or an empty monitor): the
            # clean read below stores the same registers.
        analysis.qm_poll(due_ns)

    # -- on-demand (data-plane triggered) reads ------------------------------

    def dp_read(self, now_ns: int) -> Optional["TimeWindowSnapshot"]:
        """Hardened on-demand read; returns the snapshot or ``None``.

        ``None`` means either the hardware cost model rejected the
        trigger (not a fault) or every read attempt failed at the RPC
        layer (``log.dp_read_failures`` tells them apart; the caller
        surfaces the latter as an ``accepted=False`` degraded result).
        A read that keeps failing validation is quarantined through
        ``AnalysisProgram.quarantine_snapshot_windows``, which bumps the
        snapshot-store version and drops the per-snapshot columnar memo
        so compiled-plan caches rebuild without the removed cells.
        """
        analysis = self.port.analysis
        snapshot = analysis.dp_read(now_ns)
        if snapshot is None:
            return None
        windows, failed_attempts = self._read_with_retries(
            snapshot.windows, now_ns, snapshot.valid_from_ns, source="data-plane"
        )
        if windows is None:
            # the registers were frozen but no read ever completed:
            # quarantine the whole snapshot (it holds data the control
            # plane never actually received).
            k = self.port.config.k
            cells = sum(len(fw.cells) for fw in snapshot.windows)
            span = snapshot.coverage_ns(k)
            if span is not None:
                span = (max(span[0], snapshot.valid_from_ns), span[1])
            self.log.quarantines.append(
                QuarantineRecord(
                    read_time_ns=now_ns,
                    source="data-plane",
                    kind="rpc",
                    cells=cells,
                    span_ns=span,
                )
            )
            self.log.dp_read_failures += 1
            empty = np.empty(0, dtype=np.int64)
            emptied = [
                FilteredWindow(
                    fw.window_index, fw.shift, None, empty, empty, fw.flow_table
                )
                for fw in snapshot.windows
            ]
            analysis.quarantine_snapshot_windows(snapshot, emptied)
            return None
        if failed_attempts:
            self.log.reads_recovered += 1
        if windows is not snapshot.windows:
            analysis.quarantine_snapshot_windows(snapshot, windows)
        return snapshot
