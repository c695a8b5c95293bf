"""Per-port and multi-port PrintQueue orchestration (Figure 3).

:class:`PrintQueuePort` wires one port's data path to the analysis
program: every enqueue feeds the queue monitor, every dequeue feeds the
active time-window bank (and the monitor's drain side), periodic polls
fire every set period, and data-plane trigger policies can initiate
on-demand reads at the instant a victim dequeues.

:class:`PrintQueue` manages per-port activation (the Section 6.1 flow
table: packets to ports without PrintQueue enabled are ignored), rounds
the port count to ``r(#ports)`` for register partitioning, and exposes
aggregate SRAM accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.core.analysis import AnalysisProgram, TimeWindowSnapshot
from repro.core.config import PrintQueueConfig
from repro.core.multiqueue import ClassedQueueMonitor
from repro.core.queries import FlowEstimate, QueryInterval
from repro.core.queuemonitor import QueueMonitorSnapshot
from repro.errors import ConfigError, QueryError, SimulationError
from repro.faults.injector import FaultInjector, as_injector
from repro.faults.plan import FaultPlan, profile
from repro.faults.resilience import CoverageReport, FaultLog, ResilientPoller
from repro.obs.metrics import Metrics
from repro.store import SnapshotStore
from repro.switch.packet import FlowKey, Packet
from repro.switch.port import EgressPort
from repro.switch.records import FlowColumn

#: A data-plane trigger policy: given a just-dequeued packet, decide
#: whether to initiate an on-demand read (Section 6.2's examples are a
#: queuing-delay threshold, sampling a priority flow, or a probe flag).
TriggerPolicy = Callable[[Packet], bool]


def delay_threshold_trigger(min_delay_ns: int) -> TriggerPolicy:
    """Trigger on packets with unusually high queuing delay."""

    def policy(packet: Packet) -> bool:
        return (packet.deq_timedelta or 0) >= min_delay_ns

    return policy


@dataclass
class DataPlaneQueryResult:
    """One completed on-demand query."""

    trigger_time_ns: int
    interval: QueryInterval
    estimate: FlowEstimate
    snapshot: TimeWindowSnapshot


@dataclass
class QueryResult:
    """The single result type of :meth:`PrintQueuePort.query`.

    Attributes
    ----------
    kind:
        ``"time_windows"`` for interval queries, ``"queue_monitor"`` for
        original-culprit (point-in-time) queries.
    mode:
        ``"async"`` or ``"data_plane"`` for time-window queries; ``None``
        for queue-monitor queries.
    estimate:
        Per-flow culprit contributions (empty for a rejected data-plane
        trigger).
    interval / at_ns / classes:
        Echo of the query inputs (``at_ns`` is also the resolved read
        instant of a data-plane query).
    snapshot:
        The frozen time-window bank an accepted data-plane query ran on.
    accepted:
        False when a data-plane trigger was rejected because a previous
        on-demand read still held the special registers.
    degraded / coverage:
        Set only when ``faults.plan.enabled`` (the port's fault plan can
        fire): ``degraded`` is True when measurement loss (lost polls,
        quarantined cells, lost monitor snapshots) overlaps this query,
        and ``coverage`` is the :class:`~repro.faults.CoverageReport`
        naming exactly what was missing.  A fault-free port always
        reports ``degraded=False, coverage=None``.
    """

    kind: str
    mode: Optional[str]
    estimate: FlowEstimate
    interval: Optional[QueryInterval] = None
    at_ns: Optional[int] = None
    classes: Optional[Tuple[int, ...]] = None
    snapshot: Optional[TimeWindowSnapshot] = None
    accepted: bool = True
    degraded: bool = False
    coverage: Optional[CoverageReport] = None

    def top(self, n: int) -> List[Tuple[FlowKey, float]]:
        """The n largest culprit flows (delegates to the estimate)."""
        return self.estimate.top(n)


@dataclass
class BatchQueryResult:
    """The result of a batched multi-victim time-window query.

    Returned by ``PrintQueuePort.query(intervals=[...])``.  ``estimates``
    is position-aligned with ``intervals``; indexing or iterating yields
    per-victim :class:`QueryResult` views, so downstream code written
    against the single-query surface works per victim unchanged.
    """

    kind: str
    mode: str
    intervals: List[QueryInterval]
    estimates: List[FlowEstimate]
    #: position-aligned per-victim coverage reports; None on a fault-free
    #: port (so the fault-free result object is unchanged bit for bit).
    coverages: Optional[List[CoverageReport]] = None

    @property
    def degraded(self) -> bool:
        """True when any victim's interval overlaps measurement loss."""
        if not self.coverages:
            return False
        return any(c.degraded for c in self.coverages)

    def __len__(self) -> int:
        return len(self.estimates)

    def __getitem__(self, i: int) -> QueryResult:
        coverage = self.coverages[i] if self.coverages else None
        return QueryResult(
            kind=self.kind,
            mode=self.mode,
            estimate=self.estimates[i],
            interval=self.intervals[i],
            degraded=coverage.degraded if coverage is not None else False,
            coverage=coverage,
        )

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results())

    def results(self) -> List[QueryResult]:
        """Per-victim :class:`QueryResult` views, in input order."""
        return [self[i] for i in range(len(self.estimates))]


class PrintQueuePort:
    """PrintQueue instance for a single egress port."""

    def __init__(
        self,
        config: PrintQueueConfig,
        d_ns: Optional[float] = None,
        trigger: Optional[TriggerPolicy] = None,
        model_dp_read_cost: bool = True,
        num_classes: Optional[int] = None,
        metrics: Optional[Metrics] = None,
        faults: Optional[object] = None,
        store: Optional[SnapshotStore] = None,
    ) -> None:
        self.config = config
        self.analysis = AnalysisProgram(
            config,
            d_ns=d_ns,
            model_dp_read_cost=model_dp_read_cost,
            store=store,
        )
        self.trigger = trigger
        #: optional repro.obs registry.  The structure counters are plain
        #: integers and always on; attaching a registry additionally
        #: records query latencies, ingest timings, and a poll-boundary
        #: counter timeline.  Collection never mutates structure state, so
        #: diagnosis results are bit-identical with or without it.
        self.metrics = metrics
        if metrics is not None:
            # Per-stage timing histograms (the profile-driven shaving
            # loop's vocabulary), under the pq_ingest_stage_* names the
            # generate/fifo/filter/encode stages also publish.
            self._obs_stage_qm_ns = metrics.histogram(
                "pq_ingest_stage_qm_write_back_ns"
            )
            self._obs_stage_absorb_ns = metrics.histogram(
                "pq_ingest_stage_absorb_ns"
            )
            self.analysis.attach_stage_observers(metrics)
        else:
            self._obs_stage_qm_ns = None
            self._obs_stage_absorb_ns = None
        #: per-class-of-service queue monitoring (Section 5: the monitor
        #: "can track each priority or rank separately").  When set, the
        #: packet's ``priority`` selects the class stack and enqueue-time
        #: depths are interpreted per class queue.
        self.classed_monitor: Optional[ClassedQueueMonitor] = None
        self._classed_snapshots: List[Tuple[int, Dict[int, QueueMonitorSnapshot]]] = []
        if num_classes is not None:
            self.classed_monitor = ClassedQueueMonitor(
                config.qm_levels,
                config.qm_granularity,
                max_classes=num_classes,
                flow_table=self.analysis.flow_table,
            )
        self.dp_results: List[DataPlaneQueryResult] = []
        self._next_poll_ns = config.set_period_ns
        self._qm_period_ns = config.effective_qm_poll_period_ns
        self._next_qm_poll_ns = self._qm_period_ns
        self.packets_seen = 0
        #: fault injection (repro.faults): ``faults`` is a profile name, a
        #: FaultPlan or a FaultInjector, None the zero-rate "none" plan.
        #: Every poll and on-demand read goes through the one poller
        #: (retry + validation + quarantine); query results carry
        #: degraded/coverage info when the plan can fire a fault.
        self.faults: FaultInjector = as_injector(faults, metrics=metrics)
        self.poller = ResilientPoller(self, self.faults, metrics=metrics)

    # -- data-path hooks (attach to an EgressPort) --------------------------

    def on_enqueue(self, packet: Packet) -> None:
        """Traffic-manager enqueue: feed the queue monitor's rise side.

        ``enq_qdepth`` is the depth *before* the packet (Table-1
        semantics); the level written is the depth it raised the queue to,
        one unit per packet.
        """
        assert packet.enq_qdepth is not None
        depth_after = packet.enq_qdepth + 1
        self.analysis.queue_monitor.on_enqueue(packet.flow, depth_after)
        if self.classed_monitor is not None:
            self.classed_monitor.on_enqueue(packet.priority, packet.flow, depth_after)

    def on_dequeue(self, packet: Packet) -> None:
        """Egress pipeline: time windows + monitor drain + trigger check."""
        deq_ts = packet.deq_timestamp
        self._poll_if_due(deq_ts)
        self.analysis.on_dequeue(packet.flow, deq_ts)
        if packet.deq_qdepth is not None:
            self.analysis.queue_monitor.on_dequeue(packet.flow, packet.deq_qdepth)
            if self.classed_monitor is not None:
                self.classed_monitor.on_dequeue(
                    packet.priority, packet.flow, packet.deq_qdepth
                )
        self.packets_seen += 1
        if self.trigger is not None and self.trigger(packet):
            self._dp_query_packet(packet)

    # -- event-stream interface (used by the offline fast-path driver) ------

    def process_enqueue(self, flow: FlowKey, time_ns: int, depth_after: int) -> None:
        """Offline-driver enqueue event (queue monitor rise side)."""
        self._poll_if_due(time_ns)
        self.analysis.queue_monitor.on_enqueue(flow, depth_after)

    def process_dequeue(self, flow: FlowKey, deq_ts: int, depth_after: int) -> None:
        """Offline-driver dequeue event (time windows + monitor drain)."""
        self._poll_if_due(deq_ts)
        self.analysis.on_dequeue(flow, deq_ts)
        self.analysis.queue_monitor.on_dequeue(flow, depth_after)
        self.packets_seen += 1

    def write_back_batch(
        self,
        is_enqueue: "np.ndarray",
        flows: FlowColumn,
        depth_after: "np.ndarray",
    ) -> None:
        """Queue-monitor half of one batch (``apply_batch``).

        ``flows`` is the per-event flow column over this port's flow
        table (``analysis.flow_table``).  The caller
        (:class:`repro.engine.IngestPipeline`) fires every poll due at or
        before the batch's first event beforehand and guarantees that no
        poll boundary falls strictly inside the batch, so the whole batch
        lands in one monitor epoch and, with :meth:`absorb_batch`, in one
        active bank.  The two halves are the same kernel calls the
        scalar path's ``process_enqueue``/``process_dequeue`` add up to;
        the pipeline yields between them.
        """
        if flows.table is not self.analysis.flow_table.flows:
            raise SimulationError(
                "flow column does not index this port's flow table"
            )
        histogram = self._obs_stage_qm_ns
        if histogram is None:
            self.analysis.queue_monitor.apply_batch(is_enqueue, flows, depth_after)
            return
        t0 = perf_counter_ns()
        self.analysis.queue_monitor.apply_batch(is_enqueue, flows, depth_after)
        histogram.observe(perf_counter_ns() - t0)

    def absorb_batch(self, deq_flows: FlowColumn, deq_times_ns: "np.ndarray") -> None:
        """Time-window half of one batch (``absorb_indexed``).

        ``deq_flows``/``deq_times_ns`` are the batch's dequeue events
        alone, in event order (the pipeline passes slices of the log's
        own columns, since the merged stream keeps dequeues in log
        order).
        """
        if deq_flows.table is not self.analysis.flow_table.flows:
            raise SimulationError(
                "flow column does not index this port's flow table"
            )
        num_deq = len(deq_times_ns)
        if num_deq == 0:
            return
        histogram = self._obs_stage_absorb_ns
        if histogram is None:
            self.analysis.on_dequeue_batch(deq_flows, deq_times_ns)
        else:
            t0 = perf_counter_ns()
            self.analysis.on_dequeue_batch(deq_flows, deq_times_ns)
            histogram.observe(perf_counter_ns() - t0)
        self.packets_seen += num_deq

    # -- polling -------------------------------------------------------------

    @property
    def next_poll_boundary_ns(self) -> int:
        """The next instant at which a (qm or full) poll becomes due.

        Under fault injection a delayed poll's late fire time also
        bounds the boundary, so the ingest pipeline re-slices at the
        catch-up instant exactly as the scalar path fires it.
        """
        boundary = min(self._next_qm_poll_ns, self._next_poll_ns)
        pending = self.poller.pending_full_ns
        if pending is not None and pending < boundary:
            return pending
        return boundary

    def _poll_if_due(self, now_ns: int) -> None:
        """Fire every poll due at or before ``now_ns``, in time order.

        A standalone monitor read goes first at an instant it shares with
        a full poll, and is skipped there (the full poll snapshots the
        monitor itself).  Each read goes through the
        :class:`~repro.faults.ResilientPoller`, and a delayed poll fires
        at its catch-up time.  Both ingest engines call this at identical
        points, so the stored stream (and any injected fault) is
        engine-independent.
        """
        poller = self.poller
        while now_ns >= self.next_poll_boundary_ns:
            next_qm = self._next_qm_poll_ns
            next_full = self._next_poll_ns
            pending = poller.pending_full_ns
            if pending is not None and pending <= min(next_qm, next_full):
                poller.fire_pending()
            elif next_qm <= next_full:
                if next_qm != next_full:
                    poller.poll_qm(next_qm)
                if self.classed_monitor is not None:
                    self._classed_snapshots.append(
                        (next_qm, self.classed_monitor.snapshot(next_qm))
                    )
                self._next_qm_poll_ns += self._qm_period_ns
            else:
                poller.poll_full(next_full)
                if self.metrics is not None:
                    self._sample_metrics(next_full)
                self._next_poll_ns += self.config.set_period_ns

    def _sample_metrics(self, now_ns: int) -> None:
        """Record a poll-boundary snapshot of the key structure counters.

        The sampled values are deterministic functions of the event
        stream up to ``now_ns``, so the timeline is identical between the
        scalar oracle and the ingest pipeline.
        """
        banks = self.analysis.tw_banks.banks
        monitor = self.analysis.queue_monitor
        self.metrics.sample(
            now_ns,
            {
                "packets_seen": self.packets_seen,
                "tw_updates": sum(b.updates for b in banks),
                "tw_passes": sum(b.passes for b in banks),
                "tw_drops": sum(b.drops for b in banks),
                "qm_pushes": monitor.pushes,
                "qm_drains": monitor.drains,
                "qm_high_water": monitor.high_water,
            },
        )

    def finish(self, now_ns: int) -> None:
        """Final poll at end of run so no data is left unread.

        The closing read is operator-driven (a deliberate flush, not a
        raced periodic poll), so it is never fault-injected; a delayed
        poll still pending at this point is subsumed by it — its bank
        never flipped, so the flush reads everything it would have.
        """
        self._poll_if_due(now_ns)
        self.poller.finalize(now_ns)
        self.analysis.periodic_poll(now_ns)
        if self.metrics is not None:
            self._sample_metrics(now_ns)

    # -- queries -------------------------------------------------------------

    def query(
        self,
        *,
        interval: Optional[QueryInterval] = None,
        intervals: Optional[Iterable[QueryInterval]] = None,
        mode: str = "async",
        at_ns: Optional[int] = None,
        classes: Optional[Iterable[int]] = None,
    ) -> Union[QueryResult, BatchQueryResult]:
        """The unified query entrypoint (keyword-only).

        Three query families share this surface:

        * **Time-window queries** — pass ``interval=``.  ``mode="async"``
          runs over the periodic snapshots; ``mode="data_plane"`` performs
          an on-demand register read at ``at_ns`` (default: the interval's
          last covered instant) and queries the frozen bank.  A rejected
          trigger (a previous read still draining) returns a result with
          ``accepted=False`` and an empty estimate.
        * **Batched time-window queries** — pass ``intervals=`` (a
          sequence of ``QueryInterval``): the compiled snapshot plan that
          answers a single ``mode="async"`` query answers every victim
          in one columnar pass.  Returns a :class:`BatchQueryResult`
          whose per-victim estimates are identical to the single
          queries'.  Only ``mode="async"`` is supported (an on-demand read
          mutates register banks, so batching it makes no sense).
        * **Queue-monitor queries** — pass ``at_ns=`` without an interval
          for the original culprits standing at that instant; ``classes=``
          restricts the walk to specific classes of service (requires a
          port created with ``num_classes``).

        With a :class:`~repro.obs.metrics.Metrics` registry attached the
        call also records its latency (``pq_query_latency_ns``) and tallies
        per kind/mode plus data-plane rejections; batch calls additionally
        record ``pq_batch_queries_total`` and the ``pq_batch_size``
        histogram (the per-victim mean is the batch's
        ``pq_query_latency_ns`` over its size).
        Argument errors raise before any tally is recorded.
        """
        m = self.metrics
        if m is None:
            return self._query_impl(
                interval=interval,
                intervals=intervals,
                mode=mode,
                at_ns=at_ns,
                classes=classes,
            )
        start = perf_counter_ns()
        result = self._query_impl(
            interval=interval,
            intervals=intervals,
            mode=mode,
            at_ns=at_ns,
            classes=classes,
        )
        elapsed = perf_counter_ns() - start
        if isinstance(result, BatchQueryResult):
            m.histogram(
                "pq_query_latency_ns", kind="time_windows_batch"
            ).observe(elapsed)
            m.counter("pq_batch_queries_total").inc()
            m.histogram("pq_batch_size").observe(len(result))
            m.counter(
                "pq_queries_total", kind=result.kind, mode=result.mode
            ).inc(len(result))
            m.counter("pq_queries_accepted_total").inc(len(result))
            if result.coverages:
                n_degraded = sum(1 for c in result.coverages if c.degraded)
                if n_degraded:
                    m.counter("pq_queries_degraded_total").inc(n_degraded)
            return result
        m.histogram("pq_query_latency_ns", kind=result.kind).observe(elapsed)
        m.counter(
            "pq_queries_total", kind=result.kind, mode=result.mode or "none"
        ).inc()
        if result.accepted:
            m.counter("pq_queries_accepted_total").inc()
        else:
            m.counter("pq_queries_rejected_total").inc()
        if result.degraded:
            m.counter("pq_queries_degraded_total").inc()
        return result

    def _query_impl(
        self,
        *,
        interval: Optional[QueryInterval],
        mode: str,
        at_ns: Optional[int],
        classes: Optional[Iterable[int]],
        intervals: Optional[Iterable[QueryInterval]] = None,
    ) -> Union[QueryResult, BatchQueryResult]:
        """query() minus instrumentation (validation + dispatch)."""
        if mode not in ("async", "data_plane"):
            raise QueryError(f"unknown query mode {mode!r}")
        if intervals is not None:
            if interval is not None:
                raise QueryError(
                    "pass either interval= (single) or intervals= (batch), "
                    "not both"
                )
            if mode != "async":
                raise QueryError(
                    'intervals= batch queries support only mode="async"'
                )
            if at_ns is not None:
                raise QueryError("at_ns= does not apply to batch queries")
            if classes is not None:
                raise QueryError(
                    "classes= applies to queue-monitor (at_ns=) queries"
                )
            batch = list(intervals)
            coverages = None
            log = self._fault_log
            if log is not None:
                coverages = [
                    log.coverage_for(iv.start_ns, iv.end_ns) for iv in batch
                ]
            return BatchQueryResult(
                kind="time_windows",
                mode="async",
                intervals=batch,
                estimates=self.analysis.query_time_windows_batch(batch),
                coverages=coverages,
            )
        if interval is None:
            if at_ns is None:
                raise QueryError(
                    "query() needs interval= (time windows) or at_ns= "
                    "(queue monitor)"
                )
            coverage = None
            if classes is not None:
                classes = tuple(classes)
                estimate = self._original_culprits_by_class(at_ns, classes)
            else:
                used = self.analysis.query_queue_monitor(at_ns)
                estimate = self.analysis.original_culprits(at_ns, snapshot=used)
                log = self._fault_log
                if log is not None:
                    coverage = log.qm_coverage_for(at_ns, used.time_ns)
            return QueryResult(
                kind="queue_monitor",
                mode=None,
                estimate=estimate,
                at_ns=at_ns,
                classes=classes,
                degraded=coverage.degraded if coverage is not None else False,
                coverage=coverage,
            )
        if classes is not None:
            raise QueryError("classes= applies to queue-monitor (at_ns=) queries")
        if mode == "async":
            if at_ns is not None:
                raise QueryError(
                    "at_ns= applies to data_plane or queue-monitor queries"
                )
            coverage = None
            log = self._fault_log
            if log is not None:
                coverage = log.coverage_for(interval.start_ns, interval.end_ns)
            return QueryResult(
                kind="time_windows",
                mode="async",
                estimate=self.analysis.query_time_windows(interval),
                interval=interval,
                degraded=coverage.degraded if coverage is not None else False,
                coverage=coverage,
            )
        read_at = at_ns if at_ns is not None else interval.end_ns - 1
        poller_log = self.poller.log
        dp_failures_before = poller_log.dp_read_failures
        result = self._dp_query_interval(read_at, interval)
        if result is None:
            # Either the cost model rejected the trigger (not degraded —
            # the operator can simply re-trigger later) or, under fault
            # injection, every read attempt failed at the RPC layer.
            coverage = None
            if poller_log.dp_read_failures > dp_failures_before:
                coverage = poller_log.dp_coverage_for(
                    read_at, interval.start_ns, interval.end_ns
                )
            return QueryResult(
                kind="time_windows",
                mode="data_plane",
                estimate=FlowEstimate(),
                interval=interval,
                at_ns=read_at,
                accepted=False,
                degraded=coverage is not None,
                coverage=coverage,
            )
        coverage = None
        log = self._fault_log
        if log is not None:
            coverage = log.dp_coverage_for(read_at, interval.start_ns, interval.end_ns)
        return QueryResult(
            kind="time_windows",
            mode="data_plane",
            estimate=result.estimate,
            interval=interval,
            at_ns=read_at,
            snapshot=result.snapshot,
            degraded=coverage.degraded if coverage is not None else False,
            coverage=coverage,
        )

    @property
    def _fault_log(self) -> Optional[FaultLog]:
        """The poller's log when the plan can fire a fault, else None: a
        fault-free answer carries no coverage report."""
        return self.poller.log if self.faults.plan.enabled else None

    # -- query implementations ------------------------------------------------

    def _dp_query_packet(self, packet: Packet) -> Optional[DataPlaneQueryResult]:
        """On-demand read + query for a victim packet, at its dequeue."""
        interval = QueryInterval.for_victim(packet.enq_timestamp, packet.deq_timestamp)
        return self._dp_query_interval(packet.deq_timestamp, interval)

    def _dp_query_interval(
        self, now_ns: int, interval: QueryInterval
    ) -> Optional[DataPlaneQueryResult]:
        """On-demand read at ``now_ns`` + query over ``interval``.

        Returns None when the trigger is rejected (a previous read still
        holds the special registers under the hardware cost model), or —
        under fault injection — when every read attempt failed at the
        RPC layer (``self.poller.log.dp_read_failures`` distinguishes
        the two for the caller).
        """
        snapshot = self.poller.dp_read(now_ns)
        if snapshot is None:
            return None
        # The on-demand read captures the queue monitor alongside the time
        # windows, so original-culprit queries can resolve this instant.
        if self.analysis.model_dp_read_cost is False:
            self.analysis.qm_poll(now_ns)
        estimate = self.analysis.query_time_windows(interval, snapshots=[snapshot])
        result = DataPlaneQueryResult(now_ns, interval, estimate, snapshot)
        self.dp_results.append(result)
        return result

    def _original_culprits_by_class(
        self, time_ns: int, classes: Optional[Iterable[int]] = None
    ) -> FlowEstimate:
        """Original culprits restricted to specific classes of service.

        For a class-``c`` victim under strict priority the relevant
        classes are ``range(c + 1)`` — only equal-or-higher-priority
        traffic can have delayed it.
        """
        if self.classed_monitor is None:
            raise QueryError("port was created without num_classes")
        if not self._classed_snapshots:
            raise QueryError("no classed queue-monitor snapshots yet")
        _, snapshots = min(
            self._classed_snapshots, key=lambda ts: abs(ts[0] - time_ns)
        )
        return self.classed_monitor.original_culprits(snapshots, classes)


class PrintQueue:
    """Multi-port deployment: the Section 6.1 port-configuration layer."""

    def __init__(
        self,
        config: PrintQueueConfig,
        port_ids: Iterable[int],
        d_ns: Optional[float] = None,
        trigger: Optional[TriggerPolicy] = None,
        metrics: Optional[Metrics] = None,
        faults: Optional[object] = None,
    ) -> None:
        ids = list(port_ids)
        if not ids:
            raise ConfigError("PrintQueue must be enabled on at least one port")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate port ids: {ids}")
        self.config = config
        self.port_ids = ids
        #: one shared repro.obs registry across all ports (per-port
        #: structure counters stay separable via RunReport.from_port).
        self.metrics = metrics
        # Ports draw faults independently: each gets its own injector
        # seeded from the plan's seed plus its position, so per-port
        # outcomes are reproducible and no port's draw order depends on
        # packet interleaving across ports.
        if isinstance(faults, FaultInjector):
            raise ConfigError(
                "pass a FaultPlan or profile name to the multi-port "
                "PrintQueue, not a FaultInjector (injector state cannot be "
                "shared across ports deterministically)"
            )
        plan = faults if isinstance(faults, FaultPlan) else profile(faults or "none")
        self.ports: Dict[int, PrintQueuePort] = {
            pid: PrintQueuePort(
                config,
                d_ns=d_ns,
                trigger=trigger,
                metrics=metrics,
                faults=plan.with_seed(plan.seed + index),
            )
            for index, pid in enumerate(ids)
        }
        self.ignored_packets = 0

    @property
    def rounded_ports(self) -> int:
        """``r(#ports)``: partitions allocated in each register array."""
        r = 1
        while r < len(self.port_ids):
            r *= 2
        return r

    def port(self, port_id: int) -> PrintQueuePort:
        """The per-port PrintQueue instance for ``port_id``."""
        return self.ports[port_id]

    def attach(self, switch_ports: Iterable[EgressPort]) -> None:
        """Install hooks on the matching egress ports of a simulator.

        Ports without PrintQueue enabled are left untouched — the ingress
        flow table "matches the destination port and ... if no matching is
        found, the packet is ignored".
        """
        for egress in switch_ports:
            pq = self.ports.get(egress.port_id)
            if pq is None:
                continue
            egress.add_enqueue_hook(pq.on_enqueue)
            egress.add_egress_hook(pq.on_dequeue)

    def finish(self, now_ns: int) -> None:
        """Final poll on every port so no register data is left unread."""
        for pq in self.ports.values():
            pq.finish(now_ns)
