"""Structured packet-record arrays (the production ingest carrier).

A dequeue log can be carried two ways: as a list of
:class:`~repro.switch.telemetry.DequeueRecord` objects (what the scalar
oracle walks), or as one structured numpy array of
:data:`PACKET_RECORD_DTYPE` plus a flow table (:class:`RecordBatch`, what
the ingest pipeline consumes — an object log is converted once on entry).
The structured form never materialises a per-packet Python object: flow
identity is an ``int`` index into the table, and every
timestamp/size/depth column is a zero-copy view over the array.

:class:`RecordBatch` is a ``Sequence[DequeueRecord]`` — indexing lazily
materialises the equivalent record object — so every consumer of a
dequeue log (the culprit taxonomy, victim sampling, baselines, data-plane
triggers) works on either carrier unchanged.

:class:`FlowTable` is the interning table behind those indices on the
measurement side: one per port, shared by every register bank.

:class:`FlowColumn` is the lazy ``table[idx[i]]`` view the batch kernels
see: array/slice indexing narrows the view without touching Python
objects; integer indexing resolves the actual :class:`FlowKey`.  Kernels
that understand flow *indices* (the time-window set, the Algorithm-3
filter) read ``.idx``/``.table`` directly and skip object resolution
entirely.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Sequence, Union, overload

import numpy as np

from repro.switch.fastpath import FifoResult
from repro.switch.packet import FlowKey
from repro.switch.telemetry import DequeueRecord

#: One dequeued packet, as the ingest pipeline carries it.  ``flow`` is
#: an index into the batch's flow table; timestamps are nanoseconds.
#: ``align=True`` pads the itemsize to 8 so the int64 columns stay
#: aligned for vectorised access.
PACKET_RECORD_DTYPE = np.dtype(
    [
        ("enq_ts", "<i8"),
        ("deq_ts", "<i8"),
        ("enq_qdepth", "<i4"),
        ("size", "<i4"),
        ("flow", "<i4"),
        ("priority", "<i4"),
    ],
    align=True,
)


class FlowTable:
    """One port's flow-interning table: each distinct flow gets one index.

    ``flows`` is the index -> :class:`FlowKey` list that register cells,
    :class:`FlowColumn` views and filtered snapshots point into; it only
    ever grows, in place, so those references stay valid.  The reverse
    dict is built on first use: a port fed only record batches adopts the
    first batch's table wholesale (:meth:`remap`) and never hashes a flow.
    """

    __slots__ = ("flows", "_index_of")

    def __init__(self) -> None:
        self.flows: List[FlowKey] = []
        self._index_of: Optional[Dict[FlowKey, int]] = None

    def __len__(self) -> int:
        return len(self.flows)

    def intern(self, flow: FlowKey) -> int:
        """Index of ``flow``, appending it if unseen."""
        index_of = self._index_of
        if index_of is None:
            index_of = self._index_of = {}
            for i, known in enumerate(self.flows):
                index_of.setdefault(known, i)
        idx = index_of.get(flow)
        if idx is None:
            idx = len(self.flows)
            self.flows.append(flow)
            index_of[flow] = idx
        return idx

    def remap(self, flows: Sequence[FlowKey]) -> Optional[np.ndarray]:
        """Intern a batch's whole flow table; return its index translation.

        ``translation[batch_index]`` is the index here.  An empty table
        adopts ``flows`` as is and returns ``None``: the batch's indices
        are already this table's, so a fresh port pays nothing per flow
        or per record.
        """
        if not self.flows:
            self.flows.extend(flows)
            return None
        return np.fromiter(
            map(self.intern, flows), dtype=np.int64, count=len(flows)
        )


class FlowColumn(Sequence[FlowKey]):
    """Lazy ``table[idx[i]]`` view over a flow-index column.

    Array/slice indexing narrows the view (no objects touched); integer
    indexing resolves the :class:`FlowKey`.  Kernels that work on flow
    *indices* natively (``TimeWindowSet.absorb_indexed``) read ``idx``
    and ``table`` directly.
    """

    __slots__ = ("table", "idx")

    def __init__(self, table: Sequence[FlowKey], idx: np.ndarray) -> None:
        self.table = table
        self.idx = idx

    def __len__(self) -> int:
        return len(self.idx)

    @overload
    def __getitem__(self, i: int) -> FlowKey: ...

    @overload
    def __getitem__(self, i: "Union[slice, np.ndarray]") -> "FlowColumn": ...

    def __getitem__(
        self, i: "Union[int, slice, np.ndarray]"
    ) -> "Union[FlowKey, FlowColumn]":
        if isinstance(i, (np.ndarray, slice)):
            return FlowColumn(self.table, self.idx[i])
        return self.table[int(self.idx[i])]

    def __iter__(self) -> Iterator[FlowKey]:
        table = self.table
        for j in self.idx.tolist():
            yield table[j]


class RecordBatch(Sequence[DequeueRecord]):
    """A dequeue log as one structured array plus a flow table.

    ``data`` has :data:`PACKET_RECORD_DTYPE` and is ordered by dequeue
    time (the order :func:`repro.switch.fastpath.fifo_timestamps`
    produces).  The batch is a ``Sequence[DequeueRecord]``: integer
    indexing materialises the equivalent record object on demand, so the
    object-based consumers (taxonomy, sampling, triggers) need no
    changes; the ingest pipeline reads the columns directly and never
    materialises one.
    """

    __slots__ = ("data", "flows")

    def __init__(self, data: np.ndarray, flows: Sequence[FlowKey]) -> None:
        if data.dtype != PACKET_RECORD_DTYPE:
            raise ValueError(
                f"expected PACKET_RECORD_DTYPE, got {data.dtype}"
            )
        self.data = data
        self.flows = list(flows)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fifo(
        cls,
        result: FifoResult,
        flow_index: np.ndarray,
        size_bytes: np.ndarray,
        flows: Sequence[FlowKey],
        priority: Optional[np.ndarray] = None,
    ) -> "RecordBatch":
        """Build a batch from the FIFO fast path's arrays, zero objects.

        ``flow_index``/``size_bytes`` must already be narrowed to the
        kept packets (``trace.flow_index[result.kept]``).  ``priority``
        defaults to 0, matching the single-class FIFO path.
        """
        n = len(result.kept)
        data = np.empty(n, dtype=PACKET_RECORD_DTYPE)
        data["enq_ts"] = result.enq_timestamp
        data["deq_ts"] = result.deq_timestamp
        data["enq_qdepth"] = result.enq_qdepth
        data["size"] = size_bytes
        data["flow"] = flow_index
        data["priority"] = 0 if priority is None else priority
        return cls(data, flows)

    @classmethod
    def from_records(cls, records: Sequence[DequeueRecord]) -> "RecordBatch":
        """Intern a record-object log into the structured form.

        Column-wise: one pass over the log per field (a row-by-row fill
        pays a numpy-void write per cell), flows interned in first-seen
        order.
        """
        n = len(records)
        data = np.empty(n, dtype=PACKET_RECORD_DTYPE)
        table = FlowTable()
        for column, attr in (
            ("enq_ts", "enq_timestamp"),
            ("deq_ts", "deq_timestamp"),
            ("enq_qdepth", "enq_qdepth"),
            ("size", "size_bytes"),
            ("priority", "priority"),
        ):
            data[column] = np.fromiter(
                map(attrgetter(attr), records), dtype=np.int64, count=n
            )
        data["flow"] = np.fromiter(
            map(table.intern, map(attrgetter("flow"), records)),
            dtype=np.int64,
            count=n,
        )
        return cls(data, table.flows)

    # -- columnar views ----------------------------------------------------

    @property
    def enq_timestamp(self) -> np.ndarray:
        """Enqueue timestamps (ns), int64, dequeue order."""
        return self.data["enq_ts"]

    @property
    def deq_timestamp(self) -> np.ndarray:
        """Dequeue timestamps (ns), int64, nondecreasing."""
        return self.data["deq_ts"]

    @property
    def enq_qdepth(self) -> np.ndarray:
        """Queue depth seen at enqueue, int32."""
        return self.data["enq_qdepth"]

    @property
    def size_bytes(self) -> np.ndarray:
        """On-wire packet sizes, int32."""
        return self.data["size"]

    @property
    def flow_index(self) -> np.ndarray:
        """Per-packet indices into :attr:`flows`, int32."""
        return self.data["flow"]

    # -- Sequence[DequeueRecord] -------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def _materialise(self, i: int) -> DequeueRecord:
        row = self.data[i]
        return DequeueRecord(
            flow=self.flows[int(row["flow"])],
            size_bytes=int(row["size"]),
            enq_timestamp=int(row["enq_ts"]),
            deq_timestamp=int(row["deq_ts"]),
            enq_qdepth=int(row["enq_qdepth"]),
            priority=int(row["priority"]),
        )

    @overload
    def __getitem__(self, i: int) -> DequeueRecord: ...

    @overload
    def __getitem__(self, i: slice) -> "RecordBatch": ...

    def __getitem__(
        self, i: "Union[int, slice]"
    ) -> "Union[DequeueRecord, RecordBatch]":
        if isinstance(i, slice):
            return RecordBatch(self.data[i], self.flows)
        return self._materialise(int(i))

    def __iter__(self) -> Iterator[DequeueRecord]:
        # Bulk: one tolist() per column, then positional construction —
        # not a numpy-void read per row.
        data = self.data
        return map(
            DequeueRecord,
            map(self.flows.__getitem__, data["flow"].tolist()),
            data["size"].tolist(),
            data["enq_ts"].tolist(),
            data["deq_ts"].tolist(),
            data["enq_qdepth"].tolist(),
            data["priority"].tolist(),
        )

    def to_records(self) -> List[DequeueRecord]:
        """Materialise the whole log as record objects (tests, interop)."""
        return list(self)


def as_record_batch(records: Sequence[DequeueRecord]) -> RecordBatch:
    """Coerce any dequeue log to a :class:`RecordBatch` (no-op if one)."""
    if isinstance(records, RecordBatch):
        return records
    return RecordBatch.from_records(records)
