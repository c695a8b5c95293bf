"""The control-plane analysis program (Section 6).

Responsibilities:

1. **Checkpointing** — every set period, flip the time-window banks and
   read the frozen copy (after Algorithm-3 filtering) into a snapshot
   store; snapshot the queue monitor alongside.
2. **Query execution** — time-window queries split an arbitrary interval
   across the stored snapshots (and across windows within a snapshot, each
   point in time attributed to exactly one window), divide per-window flow
   counts by ``coefficient[i]``, and aggregate; queue-monitor queries
   return the filtered walk of the snapshot closest to the query point.
3. **On-demand reads** — a data-plane trigger freezes the current bank
   immediately; the resulting query runs on data at its freshest (the
   recency-bias advantage measured in Figure 9).

The modelled read cost (register entries / PCIe read rate) gates how long
an on-demand read locks the special bank, reproducing the "operators
should be judicious about initiating data-plane queries" behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter_ns
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.coefficient import coefficients
from repro.core.config import PrintQueueConfig
from repro.core.filtering import FilteredWindow, FilterStats, filter_windows
from repro.core.queries import FlowEstimate, QueryInterval
from repro.core.queuemonitor import QueueMonitor, QueueMonitorSnapshot
from repro.core.registers import BankedStructure
from repro.core.windowset import TimeWindowSet
from repro.errors import QueryError
from repro.store import MemoryStore, SnapshotStore, SnapshotView, build_meta
from repro.switch.packet import FlowKey
from repro.switch.records import FlowColumn, FlowTable
from repro.units import PCIE_REGISTER_READS_PER_SEC, NS_PER_SEC

if TYPE_CHECKING:
    import numpy as np

    from repro.engine.queryplan import CompiledQueryPlan, PlanBuildStats


@dataclass
class TimeWindowSnapshot:
    """Filtered contents of one frozen time-window bank.

    ``valid_from_ns`` is the instant the frozen bank last became active:
    packets dequeued before it were recorded in a *different* bank, so
    this snapshot cannot speak for them even where a window's nominal
    (TTS-derived) coverage extends further back.
    """

    read_time_ns: int
    windows: List[FilteredWindow]
    source: str = "periodic"  # or "data-plane"
    valid_from_ns: int = 0

    def coverage_ns(self, k: int) -> Optional[Tuple[int, int]]:
        """[oldest, newest) time range any window of this snapshot covers."""
        start = None
        end = None
        for fw in self.windows:
            cov = fw.coverage_ns(k)
            if cov is None:
                continue
            start = cov[0] if start is None else min(start, cov[0])
            end = cov[1] if end is None else max(end, cov[1])
        if start is None or end is None:
            return None
        return start, end


def newest_first(
    snapshots: Sequence[TimeWindowSnapshot], presorted: bool = False
) -> Iterator[TimeWindowSnapshot]:
    """Yield snapshots newest read time first, oldest last.

    Snapshots sharing a read time are yielded in their *original* order —
    the tie behaviour of the historical ``sorted(..., reverse=True)``
    (stable sort) walk, which both the scalar query path and the compiled
    plan must reproduce identically.  With ``presorted`` the input is
    already ascending by read time (the snapshot store's invariant) and
    the walk is O(n) with no comparison sort.
    """
    if not presorted:
        yield from sorted(
            snapshots, key=lambda s: s.read_time_ns, reverse=True
        )
        return
    i = len(snapshots)
    while i > 0:
        j = i - 1
        t = snapshots[j].read_time_ns
        while j > 0 and snapshots[j - 1].read_time_ns == t:
            j -= 1
        yield from snapshots[j:i]
        i = j


class AnalysisProgram:
    """Per-port control-plane logic: polling, snapshot store, queries."""

    def __init__(
        self,
        config: PrintQueueConfig,
        d_ns: Optional[float] = None,
        fractional_cells: bool = False,
        apply_coefficients: bool = True,
        model_dp_read_cost: bool = True,
        store: Optional[SnapshotStore] = None,
    ) -> None:
        self.config = config
        self.coefficients = coefficients(config, d_ns)
        #: the port's one flow-interning table: every bank's registers
        #: hold indices into it, so a flow has one index port-wide (and
        #: the sharing survives a pickle round trip with the port).
        self.flow_table = FlowTable()
        # partial() rather than a lambda so a port survives a pickle round
        # trip with its shared flow table intact
        # (tests/test_fused_ingest.py::test_banks_share_one_flow_index).
        self.tw_banks: BankedStructure[TimeWindowSet] = BankedStructure(
            partial(TimeWindowSet, config, self.flow_table)
        )
        self.queue_monitor = QueueMonitor(
            config.qm_levels, config.qm_granularity, self.flow_table
        )
        if store is None:
            store = MemoryStore()
        #: the snapshot store: owns every stored snapshot and the version
        #: counter the compiled-plan cache keys on; its retention policy
        #: is the run's one retention setting.
        self.store = store
        store.bind(
            build_meta(
                config,
                d_ns,
                store.retention,
                fractional_cells=fractional_cells,
                apply_coefficients=apply_coefficients,
                model_dp_read_cost=model_dp_read_cost,
            )
        )
        #: weight cells by fractional overlap with the query interval
        #: instead of whole-cell inclusion (an ablation; default off, as
        #: the paper includes whole cells).
        self.fractional_cells = fractional_cells
        #: divide deep-window counts by coefficient[i] (ablation hook).
        self.apply_coefficients = apply_coefficients
        #: model the PCIe read duration of on-demand reads (rejecting
        #: triggers that arrive while the special registers are being
        #: drained).  Accuracy harnesses disable this to score every
        #: sampled victim; the rejection behaviour has its own micro-bench.
        self.model_dp_read_cost = model_dp_read_cost
        self._dp_lock_until_ns = 0
        self._active_since_ns = 0
        #: largest sequence number of any stored monitor snapshot: the
        #: counter is monotone, so a read peaking below it regressed.
        self.qm_max_seq = 0
        self.queries_executed = 0
        #: Algorithm-3 scan/retain totals across every poll (repro.obs).
        self.filter_stats = FilterStats()
        self._plan = None
        self._plan_key: Optional[Tuple] = None
        #: compiled-plan cache accounting (always-on repro.obs counters).
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.snapshot_compile_hits = 0
        self.snapshot_compile_misses = 0
        self.batch_queries = 0
        #: stage-timing hooks (repro.obs): ``observe(ns)`` callables for
        #: the Algorithm-3 filter and snapshot-encode stages, attached by
        #: the owning port when a metrics registry is present.  ``None``
        #: keeps the poll path branch-cheap and state-identical.
        self._stage_filter_observe: Optional[Callable[[int], None]] = None
        self._stage_encode_observe: Optional[Callable[[int], None]] = None

    def attach_stage_observers(self, metrics: object) -> None:
        """Wire the filter/encode ``pq_ingest_stage_*`` histograms."""
        self._stage_filter_observe = metrics.histogram(  # type: ignore[attr-defined]
            "pq_ingest_stage_filter_ns"
        ).observe
        self._stage_encode_observe = metrics.histogram(  # type: ignore[attr-defined]
            "pq_ingest_stage_encode_ns"
        ).observe

    # -- snapshot access (read-only store views) ---------------------------

    @property
    def tw_snapshots(self) -> SnapshotView:
        """Read-only view of the stored time-window snapshots (ascending).

        All writes go through the store (``self.store``) so the version
        counter — the compiled-plan cache key — can never be bypassed.
        """
        return self.store.tw_view()

    @property
    def qm_snapshots(self) -> SnapshotView:
        """Read-only view of the stored queue-monitor snapshots."""
        return self.store.qm_view()

    @property
    def _snapshots_version(self) -> int:
        """The store's version counter (the compiled-plan cache key)."""
        return self.store.version

    # -- data-plane side -------------------------------------------------

    def on_dequeue(self, flow: FlowKey, deq_timestamp_ns: int) -> None:
        """Per-packet egress update of the active time-window bank."""
        self.tw_banks.active.update(flow, deq_timestamp_ns)

    def on_dequeue_batch(
        self, flows: FlowColumn, deq_timestamps_ns: "np.ndarray"
    ) -> None:
        """Array-at-a-time egress update (the ingest pipeline).

        ``flows`` must index this port's :attr:`flow_table`
        (:meth:`PrintQueuePort.absorb_batch` checks it).  The caller
        guarantees no poll boundary falls inside the batch, so all
        packets land in the same active bank.
        """
        self.tw_banks.active.absorb_indexed(flows.idx, deq_timestamps_ns)

    # -- checkpointing (Section 6.2) --------------------------------------

    def periodic_poll(self, now_ns: int) -> TimeWindowSnapshot:
        """Flip banks and read the frozen copy; also snapshot the monitor."""
        return self.store_periodic_snapshot(now_ns, self.read_frozen_bank())

    def read_frozen_bank(self) -> List[FilteredWindow]:
        """Flip the banks and filter the frozen copy (Algorithm 3).

        The head half of :meth:`periodic_poll`, timed into the filter
        stage; the resilient poller validates its result before storing.
        """
        return self._filter(self.tw_banks.periodic_flip())

    def _filter(self, bank: TimeWindowSet) -> List[FilteredWindow]:
        """Algorithm 3 over one bank, timed into the filter stage: the
        one filter path of every periodic and on-demand read."""
        observe = self._stage_filter_observe
        if observe is None:
            return filter_windows(bank.snapshot(), self.config, stats=self.filter_stats)
        t0 = perf_counter_ns()
        windows = filter_windows(bank.snapshot(), self.config, stats=self.filter_stats)
        observe(perf_counter_ns() - t0)
        return windows

    def store_periodic_snapshot(
        self, now_ns: int, windows: List[FilteredWindow]
    ) -> TimeWindowSnapshot:
        """Store an already-filtered periodic read (+ monitor snapshot).

        The tail half of :meth:`periodic_poll`, timed into the encode
        stage: the resilient poller validates or quarantines the
        filtered windows between :meth:`read_frozen_bank` and this.
        """
        snapshot = TimeWindowSnapshot(
            read_time_ns=now_ns,
            windows=windows,
            source="periodic",
            valid_from_ns=self._active_since_ns,
        )
        self._active_since_ns = now_ns
        observe = self._stage_encode_observe
        if observe is None:
            self.store.add_tw(snapshot)
            self._add_qm(self.queue_monitor.snapshot(now_ns))
        else:
            t0 = perf_counter_ns()
            self.store.add_tw(snapshot)
            self._add_qm(self.queue_monitor.snapshot(now_ns))
            observe(perf_counter_ns() - t0)
        return snapshot

    def quarantine_snapshot_windows(
        self, snapshot: TimeWindowSnapshot, windows: List[FilteredWindow]
    ) -> None:
        """Replace a snapshot's windows after validation quarantined cells.

        Used by the resilient on-demand read path when a stored snapshot
        turns out to hold torn/corrupt cells: the replacement drops the
        snapshot's per-snapshot columnar memo and bumps the store
        version, so the compiled-plan cache (keyed on that version)
        rebuilds without the quarantined cells instead of serving stale
        compiled state.
        """
        self.store.replace_windows(snapshot, windows)

    def qm_poll(self, now_ns: int) -> QueueMonitorSnapshot:
        """Snapshot only the queue monitor (its own, finer cadence).

        The queue-monitor query returns the snapshot closest to the query
        point, so its useful resolution equals its polling cadence; the
        stack is far smaller than a full time-window set, so the control
        plane can afford to read it more often.  Timed, like every
        store write, into the encode stage.
        """
        observe = self._stage_encode_observe
        if observe is None:
            snapshot = self.queue_monitor.snapshot(now_ns)
            self._add_qm(snapshot)
        else:
            t0 = perf_counter_ns()
            snapshot = self.queue_monitor.snapshot(now_ns)
            self._add_qm(snapshot)
            observe(perf_counter_ns() - t0)
        return snapshot

    def _add_qm(self, snapshot: QueueMonitorSnapshot, bounded: bool = True) -> None:
        """Store a monitor snapshot and raise :attr:`qm_max_seq` past it."""
        self.store.add_qm(snapshot, bounded=bounded)
        self.qm_max_seq = max(self.qm_max_seq, snapshot.max_seq)

    def dp_read(self, now_ns: int) -> Optional[TimeWindowSnapshot]:
        """Handle a data-plane-triggered read at ``now_ns``.

        With the read-cost model enabled (hardware-faithful mode) this
        freezes the active bank, diverts updates to the special bank, and
        rejects triggers that arrive while a previous read is still
        draining over PCIe.  With it disabled (the accuracy harness) the
        read is an atomic, non-destructive copy of the active bank — the
        content an isolated freeze would have captured at this instant,
        without the bank churn that would otherwise couple closely spaced
        evaluation victims to each other.
        """
        if not self.model_dp_read_cost:
            snapshot = TimeWindowSnapshot(
                read_time_ns=now_ns,
                windows=self._filter(self.tw_banks.active),
                source="data-plane",
                valid_from_ns=self._active_since_ns,
            )
            self.tw_banks.dp_freezes += 1
            return snapshot
        if now_ns < self._dp_lock_until_ns:
            self.tw_banks.dp_rejections += 1
            return None
        frozen = self.tw_banks.dp_freeze()
        if frozen is None:
            return None
        snapshot = TimeWindowSnapshot(
            read_time_ns=now_ns,
            windows=self._filter(frozen),
            source="data-plane",
            valid_from_ns=self._active_since_ns,
        )
        self._active_since_ns = now_ns
        self.store.add_tw(snapshot)
        # On-demand reads append the monitor snapshot unbounded: they sit
        # outside the periodic retention cadence (historic behaviour).
        self._add_qm(self.queue_monitor.snapshot(now_ns), bounded=False)
        read_ns = int(
            self.config.T
            * self.config.num_cells
            / PCIE_REGISTER_READS_PER_SEC
            * NS_PER_SEC
        )
        self._dp_lock_until_ns = now_ns + read_ns
        self.tw_banks.dp_release()
        return snapshot

    # -- time-window queries (Section 6.3) ---------------------------------

    def query_time_windows(
        self,
        interval: QueryInterval,
        *,
        snapshots: Optional[Sequence[TimeWindowSnapshot]] = None,
    ) -> FlowEstimate:
        """Estimate per-flow packet counts dequeued during ``interval``.

        The interval is split into disjoint pieces, each attributed to the
        snapshot (and, within it, the single window) covering that piece:
        a batch of one, over the snapshots
        :meth:`query_time_windows_batch` would use.
        """
        self.queries_executed += 1
        plan = self.compiled_plan() if snapshots is None else self._compile(snapshots)
        return plan.query(interval, self.fractional_cells)

    def query_time_windows_batch(
        self,
        intervals: Sequence[QueryInterval],
        *,
        snapshots: Optional[Sequence[TimeWindowSnapshot]] = None,
    ) -> List[FlowEstimate]:
        """Answer every interval against one compiled plan.

        With no ``snapshots`` the plan is the cached one over the periodic
        snapshots; an explicit snapshot set (a data-plane read, say) is
        compiled ad hoc, its per-snapshot compilations still memoised.
        Answers are bit-identical, contents and iteration order, to the
        per-cell walk of Algorithms 2-3
        (:func:`repro.experiments.runner.query_time_windows_scalar`).
        """
        intervals = list(intervals)
        self.batch_queries += 1
        self.queries_executed += len(intervals)
        if not intervals:
            return []
        plan = self.compiled_plan() if snapshots is None else self._compile(snapshots)
        return plan.query_batch(intervals, self.fractional_cells)

    def compiled_plan(self) -> "CompiledQueryPlan":
        """The columnar query plan over the periodic snapshots (cached).

        The cache key is the snapshot-store version plus everything the
        compilation depends on, so the plan is rebuilt exactly when a
        poll, an on-demand read, or an eviction changes the store — and
        rebuilds recompile only snapshots not seen before (per-snapshot
        compilations are memoised on the snapshots themselves).
        """
        from repro.engine.queryplan import PlanBuildStats

        key = (
            self._snapshots_version,
            self.apply_coefficients,
            tuple(self.coefficients),
        )
        if self._plan is not None and self._plan_key == key:
            self.plan_cache_hits += 1
            return self._plan
        stats = PlanBuildStats()
        # A filtered subset of the ascending store is still ascending.
        plan = self._compile(
            [s for s in self.tw_snapshots if s.source == "periodic"],
            presorted=True,
            stats=stats,
        )
        self.plan_cache_misses += 1
        self.snapshot_compile_hits += stats.snapshot_hits
        self.snapshot_compile_misses += stats.snapshot_misses
        self._plan = plan
        self._plan_key = key
        return plan

    def _compile(
        self,
        snapshots: Sequence[TimeWindowSnapshot],
        presorted: bool = False,
        stats: Optional["PlanBuildStats"] = None,
    ) -> "CompiledQueryPlan":
        """One plan over ``snapshots``, chained newest first."""
        from repro.engine.queryplan import CompiledQueryPlan

        if not snapshots:
            raise QueryError("no snapshots available; did the poller run?")
        return CompiledQueryPlan.build(
            list(newest_first(snapshots, presorted)),
            self.config.k,
            self.coefficients,
            self.apply_coefficients,
            stats=stats,
        )

    # -- queue-monitor queries ----------------------------------------------

    def query_queue_monitor(self, time_ns: int) -> QueueMonitorSnapshot:
        """The snapshot closest in time to the query point."""
        snapshot = self.store.nearest_qm(time_ns)
        if snapshot is None:
            raise QueryError("no queue-monitor snapshots available")
        return snapshot

    def original_culprits(
        self, time_ns: int, *, snapshot: Optional[QueueMonitorSnapshot] = None
    ) -> FlowEstimate:
        """Per-flow original-culprit contributions at ``time_ns``.

        ``snapshot`` is :meth:`query_queue_monitor`'s answer for
        ``time_ns`` when the caller already holds it.
        """
        self.queries_executed += 1
        if snapshot is None:
            snapshot = self.query_queue_monitor(time_ns)
        estimate = FlowEstimate()
        for flow, count in snapshot.flow_counts().items():
            estimate.add(flow, count)
        return estimate
