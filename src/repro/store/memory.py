"""The in-process snapshot store (the default tier).

Bit-identical to the historic bare lists inside ``AnalysisProgram``:
tokens *are* the snapshot objects, so nothing is copied, serialized, or
re-materialised — adds are an O(1) append (or an O(log n) bisect for the
rare out-of-order read), and reads hand back the very objects the poller
stored.  The byte gauges are a deterministic arithmetic estimate
mirroring the binary format's sizes, so ``pq_store_bytes`` is meaningful
without ever serializing (the zero-overhead-when-off invariant).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.queuemonitor import QueueMonitorSnapshot
from repro.store.base import SnapshotStore, _TWEntry

if TYPE_CHECKING:
    from repro.core.analysis import TimeWindowSnapshot


def _tw_estimate(snapshot: "TimeWindowSnapshot") -> int:
    total = 32  # snapshot header equivalent
    for fw in snapshot.windows:
        total += 24 + 12 * fw.cell_count  # window head + i64 tts + i32 idx
    return total


def _qm_estimate(snapshot: QueueMonitorSnapshot) -> int:
    # header + i64 inc/dec sequence halves + i32 flow indices
    return 32 + sum(
        8 * (len(inc) + len(dec)) + 4 * len(idx) for inc, idx, dec in snapshot.chunks
    )


class MemoryStore(SnapshotStore):
    """Hot tier: snapshots held as live Python objects."""

    backend = "memory"

    def _encode_tw(self, snapshot: "TimeWindowSnapshot") -> Any:
        return snapshot

    def _decode_tw(self, token: Any) -> "TimeWindowSnapshot":
        return token  # type: ignore[no-any-return]

    def _encode_qm(self, snapshot: QueueMonitorSnapshot, bounded: bool) -> Any:
        return snapshot

    def _decode_qm(self, token: Any) -> QueueMonitorSnapshot:
        return token  # type: ignore[no-any-return]

    def _nbytes(self, token: Any) -> int:
        if isinstance(token, QueueMonitorSnapshot):
            return _qm_estimate(token)
        return _tw_estimate(token)

    def _note_replaced(
        self, entry: Optional[_TWEntry], snapshot: "TimeWindowSnapshot"
    ) -> None:
        if entry is None:
            return
        nbytes = _tw_estimate(snapshot)
        self.tw_bytes += nbytes - entry.nbytes
        entry.nbytes = nbytes
