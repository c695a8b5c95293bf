"""The multi-port driver: per-egress-port shards across a process pool.

PrintQueue's data-plane layout partitions registers per egress port
(paper §6), which makes ports the natural parallelism axis for offline
ingest too: each port's dequeue log is an independent stream with its
own time-window banks, queue monitor, and snapshot store.  This module
drives one :class:`~repro.engine.ingest.IngestPipeline` per shard in a
worker process and adopts the finished ports back into the parent, with
results bit-identical to running each shard's pipeline in-process.  It
is a multi-port *correctness* feature — N ports, N independent stores,
one call — not an ingest tier: a single port gains nothing from the
process hop.

Transport
---------

* The record array (:data:`~repro.switch.records.PACKET_RECORD_DTYPE`)
  travels through ``multiprocessing.shared_memory`` — one memcpy in,
  one copy out in the worker, never pickled.  The flow table and the
  (fresh, pre-traffic) port are pickled normally.
* The worker's snapshot-store writes are captured as a PQSTORE1 byte
  stream by an in-memory recorder twin and replayed into the parent's
  real store object afterwards (:func:`repro.store.replay.replay_into`).
  The parent store object — whatever backend: memory, mmap, compressed,
  with or without its own recorder — keeps its identity and produces
  byte-identical files/recordings to an in-process run.
* Worker-side observability counters merge into the parent registry
  (:meth:`~repro.obs.metrics.Metrics.merge`); the adopted port's handles
  then re-point at it (:meth:`~repro.core.printqueue.PrintQueuePort.attach_metrics`).

Degradation contract
--------------------

Mirrors :class:`~repro.engine.parallel.ParallelSweep`: typed submission
and transport failures (pickling, broken pool, OS limits) fall back to
running every remaining shard in-process — same results, one process.
``REPRO_SHARDED_INPROCESS=1`` forces the in-process path outright, and
shards carrying baseline estimators run in-process unconditionally
(estimator state lives in the parent).  ``last_execution`` records which
path ran (``"pool"`` or ``"in-process"``).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pickle import PicklingError
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.interval import FixedIntervalEstimator
from repro.core.printqueue import DataPlaneQueryResult, PrintQueuePort
from repro.errors import ConfigError, PoolTimeoutError
from repro.engine.ingest import IngestPipeline
from repro.engine.parallel import default_pool_timeout_s
from repro.obs.metrics import Metrics
from repro.store import format as storefmt
from repro.store.memory import MemoryStore
from repro.store.replay import replay_into
from repro.switch.records import PACKET_RECORD_DTYPE, RecordBatch, as_record_batch
from repro.switch.telemetry import DequeueRecord
from repro.traffic.trace import Trace

#: Environment variable forcing the in-process path (no worker processes).
INPROCESS_ENV = "REPRO_SHARDED_INPROCESS"

#: Failure taxonomy that downgrades the pool to in-process execution —
#: the same classes :class:`~repro.engine.parallel.ParallelSweep` treats
#: as "the pool cannot work here", nothing else (a real error inside the
#: pipeline raises either way).
_FALLBACK_ERRORS = (
    PoolTimeoutError,
    PicklingError,
    AttributeError,
    TypeError,
    OSError,
    RuntimeError,
)


class _StreamRecorder:
    """In-memory twin of :class:`~repro.store.recording.Recorder`.

    Captures the worker store's ingest stream in PQSTORE1 wire format;
    the parent replays the bytes into its real store, so the stream any
    backend persists is byte-identical to an in-process run's.
    """

    __slots__ = ("_chunks", "_header_written", "bytes_written", "records_written")

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._header_written = False
        self.bytes_written = 0
        self.records_written = 0

    def write_header(self, meta: Dict[str, object]) -> None:
        if self._header_written:
            return
        self._append(storefmt.encode_header(meta))
        self._header_written = True

    def _append(self, data: bytes) -> None:
        self._chunks.append(data)
        self.bytes_written += len(data)

    def _record(self, kind: int, payload: bytes) -> None:
        self._append(storefmt.frame(kind, payload))
        self.records_written += 1

    def record_tw(self, snapshot: object) -> None:
        self._record(storefmt.REC_TW_ADD, storefmt.encode_tw(snapshot))

    def record_qm(self, snapshot: object, bounded: bool) -> None:
        self._record(storefmt.REC_QM_ADD, storefmt.encode_qm(snapshot, bounded))

    def record_replace(self, target_seq: int, snapshot: object) -> None:
        self._record(
            storefmt.REC_TW_REPLACE, storefmt.encode_replace(target_seq, snapshot)
        )

    def flush(self) -> None:  # Recorder interface; nothing buffered outside
        pass

    def close(self) -> None:
        pass

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


@dataclass
class Shard:
    """One egress port's slice of work: the port plus its dequeue log."""

    pq: PrintQueuePort
    records: Sequence[DequeueRecord]
    dp_trigger_indices: Optional[Set[int]] = None
    baselines: List[FixedIntervalEstimator] = field(default_factory=list)


def partition_trace_by_port(trace: Trace, num_ports: int) -> List[Trace]:
    """Split a trace into per-egress-port sub-traces, deterministically.

    Flows map to ports by ``flow_index % num_ports`` — a stand-in for a
    forwarding table that is stable across runs and engines, so shard
    counts can vary while every flow's port (hence its queue dynamics)
    stays fixed for a given ``num_ports``.  Each sub-trace keeps the full
    flow table (indices stay valid) and its arrays remain arrival-sorted.
    """
    if num_ports < 1:
        raise ConfigError(f"need at least one port, got {num_ports}")
    ports: List[Trace] = []
    assignment = trace.flow_index % num_ports
    for port in range(num_ports):
        mask = assignment == port
        ports.append(
            Trace(
                arrival_ns=trace.arrival_ns[mask],
                size_bytes=trace.size_bytes[mask],
                flow_index=trace.flow_index[mask],
                flows=trace.flows,
                priority=None if trace.priority is None else trace.priority[mask],
                name=f"{trace.name}:port{port}",
            )
        )
    return ports


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _shard_worker(
    pq: PrintQueuePort,
    shm_name: str,
    num_records: int,
    flows: Sequence,
    triggers: Optional[Set[int]],
) -> Tuple[PrintQueuePort, Dict[int, DataPlaneQueryResult]]:
    """Run one shard's pipeline against a shared-memory record array."""
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        view = np.ndarray(num_records, dtype=PACKET_RECORD_DTYPE, buffer=shm.buf)
        # One copy: the port's state (window arrays, snapshots) must not
        # alias a segment the parent unlinks after this worker returns.
        data = view.copy()
    finally:
        shm.close()
    batch = RecordBatch(data, flows)
    dp_results = IngestPipeline(
        pq, batch, dp_trigger_indices=triggers
    ).run()
    return pq, dp_results


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _prepare_for_worker(pq: PrintQueuePort) -> Tuple[Optional[Metrics], object]:
    """Swap transport-safe stand-ins into a port before pickling it.

    The real store (possibly an unpicklable write-mode mmap) is replaced
    by a fresh :class:`MemoryStore` carrying the same retention policy
    and bound metadata, with a :class:`_StreamRecorder` capturing the
    ingest stream; the parent registry is replaced by an empty one so
    the merge after adoption adds exactly the worker's deltas.  Returns
    what :func:`_adopt_worker_port` needs to undo the swap.
    """
    parent_metrics = pq.metrics
    if parent_metrics is not None:
        pq.attach_metrics(Metrics())
    parent_store = pq.analysis.store
    shard_store = MemoryStore(retention=parent_store.retention)
    shard_store.bind(dict(parent_store.meta))
    shard_store.attach_recorder(_StreamRecorder())
    pq.analysis.store = shard_store
    return parent_metrics, parent_store


def _restore_parent(
    pq: PrintQueuePort, parent_metrics: Optional[Metrics], parent_store: object
) -> None:
    """Undo :func:`_prepare_for_worker` on a port that never ran (fallback)."""
    pq.analysis.store = parent_store  # type: ignore[assignment]
    pq.attach_metrics(parent_metrics)


def _adopt_worker_port(
    pq: PrintQueuePort,
    worker_pq: PrintQueuePort,
    parent_metrics: Optional[Metrics],
    parent_store: object,
) -> None:
    """Fold a finished worker port back into the parent's port object.

    The parent port object keeps its identity (callers hold references);
    its state becomes the worker's.  The worker's store stream replays
    into the parent's real store, worker counters merge into the parent
    registry, and every metrics handle re-points at it.
    """
    pq.__dict__.update(worker_pq.__dict__)
    shard_store = pq.analysis.store
    recorder = shard_store._recorder  # type: ignore[attr-defined]
    pq.analysis.store = parent_store  # type: ignore[assignment]
    replay_into(parent_store, recorder.getvalue())  # type: ignore[arg-type]
    worker_metrics = pq.metrics
    if parent_metrics is not None and worker_metrics is not None:
        parent_metrics.merge(worker_metrics)
    pq.attach_metrics(parent_metrics)


class ShardRunner:
    """Run a fleet of per-port shards, one worker process per shard.

    Mutates each shard's port in place (the adopted worker state) and
    returns the per-shard data-plane query results, in shard order.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        max_workers: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.shards = list(shards)
        cores = os.cpu_count() or 1
        self.max_workers = max_workers or min(len(self.shards), cores) or 1
        # Bounded per-shard wait: None (default) reads REPRO_POOL_TIMEOUT_S
        # via the sweep module's resolver; <= 0 disables the bound.
        if timeout_s is None:
            self.timeout_s: Optional[float] = default_pool_timeout_s()
        else:
            self.timeout_s = timeout_s if timeout_s > 0 else None
        #: ``"pool"`` or ``"in-process"`` after :meth:`run`.
        self.last_execution: Optional[str] = None
        #: Number of expired bounded waits (each downgrades to in-process).
        self.pool_timeouts = 0
        # Shards already adopted from a worker; the in-process fallback
        # must not re-drive them (their ports already hold the log).
        self._completed: Dict[int, Dict[int, DataPlaneQueryResult]] = {}

    def _note_pool_timeout(self) -> None:
        """Account one expired wait against the first shard's registry."""
        self.pool_timeouts += 1
        for shard in self.shards:
            metrics = shard.pq.metrics
            if metrics is not None:
                metrics.counter("pq_pool_timeouts_total").inc()
                break

    def _force_in_process(self) -> bool:
        if os.environ.get(INPROCESS_ENV):
            return True
        return any(shard.baselines for shard in self.shards)

    def run(self) -> List[Dict[int, DataPlaneQueryResult]]:
        if not self.shards:
            self.last_execution = "in-process"
            return []
        if self._force_in_process():
            return self._run_in_process()
        try:
            return self._run_pool()
        except PoolTimeoutError:
            # A worker exceeded its bounded wait; ports were already
            # restored by the pool path's cleanup handler, so the parent
            # registry is back in place for the counter tick.
            self._note_pool_timeout()
            return self._run_in_process()
        except _FALLBACK_ERRORS:
            return self._run_in_process()

    # -- the two execution paths -------------------------------------------

    def _run_in_process(self) -> List[Dict[int, DataPlaneQueryResult]]:
        results: List[Dict[int, DataPlaneQueryResult]] = []
        for i, shard in enumerate(self.shards):
            done = self._completed.get(i)
            if done is not None:
                results.append(done)
                continue
            results.append(
                IngestPipeline(
                    shard.pq,
                    shard.records,
                    dp_trigger_indices=shard.dp_trigger_indices,
                    baselines=shard.baselines or None,
                ).run()
            )
        self.last_execution = "in-process"
        return results

    def _run_pool(self) -> List[Dict[int, DataPlaneQueryResult]]:
        batches = [as_record_batch(shard.records) for shard in self.shards]
        segments: List[Optional[shared_memory.SharedMemory]] = [None] * len(
            self.shards
        )
        prepared: List[Optional[Tuple[Optional[Metrics], object]]] = [None] * len(
            self.shards
        )
        results: List[Optional[Dict[int, DataPlaneQueryResult]]] = [None] * len(
            self.shards
        )
        # Managed by hand (not `with`): a `with` exit joins the pool, and
        # after a bounded wait expired that join would block on the very
        # worker we just declared stuck.
        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        wait_on_shutdown = True
        try:
            futures = []
            for i, (shard, batch) in enumerate(zip(self.shards, batches)):
                data = np.ascontiguousarray(batch.data)
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, data.nbytes)
                )
                segments[i] = shm
                dest = np.ndarray(
                    len(data), dtype=PACKET_RECORD_DTYPE, buffer=shm.buf
                )
                dest[:] = data
                prepared[i] = _prepare_for_worker(shard.pq)
                futures.append(
                    pool.submit(
                        _shard_worker,
                        shard.pq,
                        shm.name,
                        len(data),
                        batch.flows,
                        shard.dp_trigger_indices,
                    )
                )
            for i, future in enumerate(futures):
                # BrokenProcessPool is a RuntimeError subclass, so a
                # crashed worker propagates straight into run()'s
                # _FALLBACK_ERRORS net after the restore handler runs.
                # FuturesTimeout must be converted before that net sees
                # it: on 3.11+ it aliases the builtin TimeoutError (an
                # OSError subclass) and would lose the timeout identity.
                try:
                    worker_pq, dp_results = future.result(timeout=self.timeout_s)
                except FuturesTimeout:
                    wait_on_shutdown = False
                    raise PoolTimeoutError(
                        f"shard {i} exceeded its {self.timeout_s}s pool wait"
                    ) from None
                parent_metrics, parent_store = prepared[i]  # type: ignore[misc]
                _adopt_worker_port(
                    self.shards[i].pq, worker_pq, parent_metrics, parent_store
                )
                prepared[i] = None
                results[i] = dp_results
                self._completed[i] = dp_results
        except BaseException:
            # Ports whose workers never (fully) ran get their original
            # store/registry back, so the in-process fallback (or the
            # caller, for non-taxonomy errors) sees consistent ports;
            # adopted ports are final and the fallback skips them.
            for i, swap in enumerate(prepared):
                if swap is not None:
                    _restore_parent(self.shards[i].pq, *swap)
            raise
        finally:
            pool.shutdown(wait=wait_on_shutdown, cancel_futures=not wait_on_shutdown)
            for shm in segments:
                if shm is not None:
                    shm.close()
                    try:
                        shm.unlink()
                    except FileNotFoundError:
                        pass
        self.last_execution = "pool"
        return [r if r is not None else {} for r in results]
