"""Poll-boundary-aligned ingest: the one production path.

The scalar oracle replays a dequeue log one event at a time: every
enqueue/dequeue crosses the Python call boundary into
``process_enqueue`` / ``process_dequeue``, which dominates wall-clock on
million-packet traces.  :class:`IngestPipeline` replays the *same* merged
event stream in slices:

1. take the log as a :class:`~repro.switch.records.RecordBatch` (an
   object-record log is converted once on entry), so the timestamp
   columns are array views and flow identity is an index column;
2. merge the enqueue and dequeue sides into one time-ordered stream
   (vectorised, :func:`repro.switch.fastpath.merge_event_streams`);
3. cut the stream at every poll boundary (queue-monitor cadence, set
   period) and at every data-plane trigger, so that within one slice no
   control-plane action can occur;
4. feed each slice to the port in two halves:
   :meth:`PrintQueuePort.write_back_batch` updates the queue monitor via
   ``apply_batch`` and :meth:`PrintQueuePort.absorb_batch` the active
   time-window bank via ``absorb_indexed`` — both array-at-a-time.  The
   merge keeps the dequeues in log order, so a slice's dequeue side is a
   slice of the log's own ``deq_ts``/flow columns.

A step is therefore three kernel phases — the poll (filter → encode →
store, when one is due), the monitor write-back and the window absorb —
and :meth:`IngestPipeline.steps` yields after each, so a live driver can
answer queries between any two of them.

Because slices never straddle a poll boundary and triggers still fire at
their exact dequeue instants, the resulting snapshots, counters, and
query results are bit-identical to the scalar path (the differential
suite, ``tests/test_fused_ingest.py``, asserts this record for record).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Set

import numpy as np

from repro.core.printqueue import DataPlaneQueryResult, PrintQueuePort
from repro.core.queries import QueryInterval
from repro.switch.fastpath import merge_event_streams
from repro.switch.records import FlowColumn, RecordBatch, as_record_batch
from repro.switch.telemetry import DequeueRecord


class IngestPipeline:
    """Drive one port through the array ingest path.

    Parameters
    ----------
    pq:
        The per-port PrintQueue instance to feed.  A port that has seen
        no flow yet adopts the log's flow table as its own; one that
        already holds traffic has the log's flows interned into its
        table and the flow column translated once.
    records:
        The dequeue log, in dequeue order: a
        :class:`~repro.switch.records.RecordBatch` (as produced by
        :func:`repro.switch.fastpath.fifo_record_batch`) or
        any sequence of :class:`DequeueRecord` objects.
    dp_trigger_indices:
        Record positions at whose dequeue instant an on-demand
        read+query fires.
    """

    def __init__(
        self,
        pq: PrintQueuePort,
        records: Sequence[DequeueRecord],
        dp_trigger_indices: Optional[Set[int]] = None,
    ) -> None:
        self.pq = pq
        self.batch: RecordBatch = as_record_batch(records)
        self.triggers = set(dp_trigger_indices or ())
        self.batches_processed = 0
        #: Completed on-demand queries; filled by :meth:`steps`/:meth:`run`.
        self.dp_results: Dict[int, DataPlaneQueryResult] = {}
        table = pq.analysis.flow_table
        self._flow_table = table.flows
        #: batch flow index -> port flow index (None: they coincide).
        self._flow_remap = table.remap(self.batch.flows)
        # repro.obs: batch-size distribution and batch tally, published
        # into the port's registry when one is attached (apply/absorb
        # timings are recorded inside the port's two batch halves).
        metrics = pq.metrics
        if metrics is not None:
            self._obs_batch_events = metrics.histogram("pq_ingest_batch_events")
            self._obs_batches = metrics.counter("pq_ingest_batches_total")
        else:
            self._obs_batch_events = None
            self._obs_batches = None

    def run(self) -> Dict[int, DataPlaneQueryResult]:
        """Replay the whole log; returns completed on-demand queries."""
        for _ in self.steps():
            pass
        return self.dp_results

    def steps(self) -> "Iterator[int]":
        """Replay the log one kernel phase at a time.

        Yields after every phase — a poll, a monitor write-back, a window
        absorb — the number of merged events it completed: 0 after a poll
        or a write-back, the step's event count after its absorb.  This is
        the drive hook the live service's ingest task uses to interleave
        ingest with its event loop.  Exhausting the
        generator finishes the port (windows flushed, store synced);
        completed on-demand queries accumulate in :attr:`dp_results`.
        :meth:`run` simply drains this generator, so the two drivers are
        bit-identical; a generator abandoned mid-stream leaves the port
        unfinished (see the supervisor's fail-stop contract in
        ``repro.service``).
        """
        records = self.batch
        pq = self.pq
        n = len(records)
        dp_results: Dict[int, DataPlaneQueryResult] = {}
        self.dp_results = dp_results
        if n == 0:
            return

        data = records.data
        deq_ts = data["deq_ts"]
        stream = merge_event_streams(data["enq_ts"], deq_ts)
        times = stream.time_ns
        is_enq = stream.is_enqueue
        rec_idx = stream.record_index
        depth = stream.depth_after
        flow = data["flow"]
        if self._flow_remap is not None:
            flow = self._flow_remap[flow]
        ev_flows = FlowColumn(
            self._flow_table, flow[rec_idx].astype(np.int64, copy=False)
        )
        # The merge keeps dequeues in log order, so a step's dequeue side
        # is the slice [d0, d1) of the log's own columns: field views, read
        # once by the kernel, with no gather and no copy held for the drive.
        deq_flows = FlowColumn(self._flow_table, flow)
        num_events = len(times)

        # Merged positions at which a data-plane trigger fires (after the
        # dequeue event at that position is processed).
        if self.triggers:
            trig_sorted = np.fromiter(
                sorted(self.triggers), dtype=np.int64, count=len(self.triggers)
            )
            trig_pos = np.flatnonzero(
                ~is_enq & np.isin(rec_idx, trig_sorted)
            )
        else:
            trig_pos = np.empty(0, dtype=np.int64)

        cur = 0
        d0 = 0  # dequeue events before `cur`
        tp = 0
        while cur < num_events:
            boundary = pq.next_poll_boundary_ns
            if times[cur] >= boundary:
                # The poll phase: fire every poll due before this event,
                # exactly as the scalar path's per-event _poll_if_due would.
                pq._poll_if_due(int(times[cur]))
                yield 0
                continue
            end = int(np.searchsorted(times, boundary, side="left"))
            while tp < len(trig_pos) and trig_pos[tp] < cur:
                tp += 1
            fire_trigger = False
            if tp < len(trig_pos) and trig_pos[tp] < end:
                end = int(trig_pos[tp]) + 1
                fire_trigger = True
            sl = slice(cur, end)
            # The first `end` events hold e enqueues and d dequeues with
            # e + d = end and e - d = depth after event end - 1.
            d1 = (end - int(depth[end - 1])) // 2
            pq.write_back_batch(is_enq[sl], ev_flows[sl], depth[sl])
            yield 0
            pq.absorb_batch(deq_flows[d0:d1], deq_ts[d0:d1])
            self.batches_processed += 1
            if self._obs_batches is not None:
                self._obs_batches.inc()
                self._obs_batch_events.observe(end - cur)
            if fire_trigger:
                d = int(rec_idx[end - 1])
                record = records[d]
                interval = QueryInterval.for_victim(
                    record.enq_timestamp, record.deq_timestamp
                )
                result = pq._dp_query_interval(record.deq_timestamp, interval)
                if result is not None:
                    dp_results[d] = result
                tp += 1
            yield end - cur
            cur = end
            d0 = d1

        end_ns = records[-1].deq_timestamp + 1
        pq.finish(end_ns)
