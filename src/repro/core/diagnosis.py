"""High-level diagnosis: a full Section-2 culprit report from PrintQueue
data alone.

The evaluation harness knows the true congestion-regime boundaries from
the ground-truth oracle, but a deployed PrintQueue must estimate them
from its own state.  :class:`Diagnoser` does that with the queue-monitor
snapshots: the regime start is approximated by the most recent snapshot
(at or before the victim's enqueue) whose stack top sat at/below an
"empty" threshold — i.e. the last time the control plane observed the
queue drained.  Given the regime estimate, the three queries of
Section 6.3 compose into one :class:`~repro.core.queries.CulpritReport`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.printqueue import PrintQueuePort
from repro.core.queries import CulpritReport, FlowEstimate, QueryInterval
from repro.errors import QueryError
from repro.switch.telemetry import DequeueRecord


class Diagnoser:
    """Compose PrintQueue's three query types into one victim report.

    Parameters
    ----------
    pq:
        The per-port PrintQueue instance to query.
    empty_threshold_levels:
        Stack-top level at/below which the queue counts as drained when
        estimating the congestion-regime start.
    """

    def __init__(self, pq: PrintQueuePort, empty_threshold_levels: int = 1) -> None:
        if empty_threshold_levels < 0:
            raise ValueError(f"negative threshold: {empty_threshold_levels}")
        self.pq = pq
        self.empty_threshold_levels = empty_threshold_levels

    # -- regime estimation --------------------------------------------------

    def estimate_regime_start(self, enq_timestamp: int) -> int:
        """Last observed drained instant at/before ``enq_timestamp``.

        Resolution is the queue-monitor polling cadence; with no drained
        snapshot on record the regime extends to the first stored
        snapshot at/before it (or 0 when none exists yet).  Read off the
        store's keys: no snapshot is decoded.
        """
        return self.pq.analysis.store.last_drained_qm_ns(
            enq_timestamp, self.empty_threshold_levels
        )

    # -- the composed report --------------------------------------------------

    def diagnose(
        self,
        enq_timestamp: int,
        deq_timestamp: int,
        use_data_plane_query: bool = False,
    ) -> CulpritReport:
        """Full direct / indirect / original report for a victim interval.

        ``use_data_plane_query`` routes the direct-culprit lookup through
        an on-demand register read (higher accuracy when issued promptly,
        Section 6.2); otherwise all queries run on the periodic snapshots.
        """
        if deq_timestamp < enq_timestamp:
            raise QueryError(
                f"victim dequeued before enqueue: {deq_timestamp} < {enq_timestamp}"
            )
        direct_interval = QueryInterval.for_victim(enq_timestamp, deq_timestamp)
        direct: Optional[FlowEstimate] = None
        if use_data_plane_query:
            result = self.pq.query(
                interval=direct_interval, mode="data_plane", at_ns=deq_timestamp
            )
            if result.accepted and result.estimate.total > 0:
                direct = result.estimate
            # Fall through when the trigger was rejected or the special
            # registers no longer cover the interval (an on-demand read
            # is only fresh at the victim's actual dequeue instant).
        if direct is None:
            direct = self.pq.query(interval=direct_interval).estimate

        regime_start = self.estimate_regime_start(enq_timestamp)
        if regime_start < enq_timestamp:
            indirect = self.pq.query(
                interval=QueryInterval(regime_start, enq_timestamp)
            ).estimate
        else:
            indirect = FlowEstimate()

        original = self.pq.query(at_ns=enq_timestamp).estimate
        return CulpritReport(
            victim_enq_ns=enq_timestamp,
            victim_deq_ns=deq_timestamp,
            direct=direct,
            indirect=indirect,
            original=original,
        )

    def diagnose_record(
        self, record: DequeueRecord, use_data_plane_query: bool = False
    ) -> CulpritReport:
        """Convenience wrapper taking a telemetry record."""
        return self.diagnose(
            record.enq_timestamp,
            record.deq_timestamp,
            use_data_plane_query=use_data_plane_query,
        )
