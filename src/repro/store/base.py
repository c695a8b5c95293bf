"""The pluggable snapshot store behind :class:`AnalysisProgram`.

The store owns every control-plane snapshot (time-window and
queue-monitor) **and the version counter** that the compiled-plan cache
keys on.  Centralising the counter here is the point of the design: any
mutation that can change a query answer — poll ingest, an on-demand
read, a retention eviction, a fault quarantine — flows through exactly
one of the mutating methods below, each of which bumps the version, so
``engine/queryplan.py``'s cache invalidation contract cannot be bypassed
by a new write path.

Backends supply the encode/decode primitives; everything with
behavioural weight — ascending-at-insert ordering, the retention cap,
quarantine replacement — lives here so both backends share one history
of store mutations and therefore one version evolution.  That shared
history is what makes record/replay exact: a store rebuilt from a
PQSTORE1 file re-derives the same version sequence, eviction pattern,
and per-snapshot compile memo behaviour as the live run.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
    overload,
)

from repro.core.filtering import FilteredWindow
from repro.core.queuemonitor import QueueMonitorSnapshot
from repro.store.retention import RetentionPolicy

if TYPE_CHECKING:
    from repro.core.analysis import TimeWindowSnapshot


class _TWEntry:
    """One stored time-window snapshot: key, token, and decode cache."""

    __slots__ = ("seq", "key", "token", "nbytes", "cached")

    def __init__(self, seq: int, key: int, token: Any, nbytes: int) -> None:
        self.seq = seq
        self.key = key
        self.token = token
        self.nbytes = nbytes
        self.cached: Optional["TimeWindowSnapshot"] = None


class _QMEntry:
    """One stored queue-monitor snapshot, keyed by its ``time_ns``, with
    its stack ``top`` (read without decoding)."""

    __slots__ = ("key", "top", "token", "nbytes", "cached")

    def __init__(self, key: int, top: int, token: Any, nbytes: int) -> None:
        self.key = key
        self.top = top
        self.token = token
        self.nbytes = nbytes
        self.cached: Optional[QueueMonitorSnapshot] = None


_qm_key = attrgetter("key")


class SnapshotView(Sequence[Any]):
    """Read-only sequence over a store's snapshots.

    This is the sanctioned way to *read* stored snapshots from outside
    ``core/analysis.py``: it behaves like the historic list (indexing,
    slicing, iteration, ``==`` against lists) but exposes no mutators,
    so every write is forced through the store's version-bumping API.
    """

    __slots__ = ("_entries", "_store", "_kind")

    def __init__(self, entries: List[Any], store: "SnapshotStore", kind: str):
        self._entries = entries
        self._store = store
        self._kind = kind

    def _decode(self, entry: Any) -> Any:
        if self._kind == "tw":
            return self._store._decode_entry_tw(entry)
        return self._store._decode_entry_qm(entry)

    def __len__(self) -> int:
        return len(self._entries)

    @overload
    def __getitem__(self, index: int) -> Any: ...

    @overload
    def __getitem__(self, index: slice) -> List[Any]: ...

    def __getitem__(self, index: Union[int, slice]) -> Any:
        if isinstance(index, slice):
            return [self._decode(e) for e in self._entries[index]]
        return self._decode(self._entries[index])

    def __iter__(self) -> Iterator[Any]:
        for entry in self._entries:
            yield self._decode(entry)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, SnapshotView)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"SnapshotView({list(self)!r})"


class SnapshotStore(ABC):
    """Abstract snapshot store: ordering, retention, versioning.

    Subclasses implement the storage primitives (``_encode_tw`` /
    ``_decode_tw`` / ``_encode_qm`` / ``_decode_qm`` and optionally the
    eviction hooks); the base class implements the behavioural contract
    shared by every backend.
    """

    backend: ClassVar[str] = "abstract"

    def __init__(self, retention: Optional[RetentionPolicy] = None) -> None:
        self.retention = retention if retention is not None else RetentionPolicy()
        self._tw_entries: List[_TWEntry] = []
        self._tw_keys: List[int] = []
        self._qm_entries: List[_QMEntry] = []
        #: whether the monitor keys are non-decreasing in storage order
        #: (see :meth:`nearest_qm`).
        self._qm_sorted = True
        self._seq_index: Dict[int, _TWEntry] = {}
        self._version = 0
        self._next_seq = 0
        self._bound = False
        self.meta: Dict[str, Any] = {}
        #: events consumed when this store was built by replay (0 = live).
        self.replay_position = 0
        self.tw_added = 0
        self.qm_added = 0
        self.tw_evictions = 0
        self.qm_evictions = 0
        self.quarantine_replacements = 0
        self.tw_bytes = 0
        self.qm_bytes = 0
        self._tw_view = SnapshotView(self._tw_entries, self, "tw")
        self._qm_view = SnapshotView(self._qm_entries, self, "qm")

    # -- backend primitives ------------------------------------------------

    @abstractmethod
    def _encode_tw(self, snapshot: "TimeWindowSnapshot") -> Any:
        """Store a time-window snapshot; return its storage token."""

    @abstractmethod
    def _decode_tw(self, token: Any) -> "TimeWindowSnapshot":
        """Materialise the snapshot behind a token."""

    @abstractmethod
    def _encode_qm(self, snapshot: QueueMonitorSnapshot, bounded: bool) -> Any:
        """Store a queue-monitor snapshot; return its storage token."""

    @abstractmethod
    def _decode_qm(self, token: Any) -> QueueMonitorSnapshot:
        """Materialise the queue-monitor snapshot behind a token."""

    @abstractmethod
    def _nbytes(self, token: Any) -> int:
        """Stored size of a token, for the per-tier byte gauges."""

    def _on_bind(self) -> None:
        """Hook: the run metadata just became known."""

    def close(self) -> None:
        """Release backend resources (files, maps).  Idempotent."""

    # -- decode caching ----------------------------------------------------

    def _decode_entry_tw(self, entry: _TWEntry) -> "TimeWindowSnapshot":
        # The decoded object is cached on the entry so repeated reads see
        # one stable object: the compiled plan memoises per-snapshot
        # columnar state on the snapshot itself, and that memo (hence the
        # plan-cache hit pattern) must behave identically across backends.
        snapshot = entry.cached
        if snapshot is None:
            snapshot = self._decode_tw(entry.token)
            snapshot._store_seq = entry.seq  # type: ignore[attr-defined]
            entry.cached = snapshot
        return snapshot

    def _decode_entry_qm(self, entry: _QMEntry) -> QueueMonitorSnapshot:
        snapshot = entry.cached
        if snapshot is None:
            snapshot = self._decode_qm(entry.token)
            entry.cached = snapshot
        return snapshot

    # -- the mutating API (every path that can change a query answer) ------

    @property
    def version(self) -> int:
        """The plan-cache invalidation counter.  Monotonic."""
        return self._version

    def bump_version(self) -> None:
        """Force plan-cache invalidation without a content change.

        For harnesses (benchmarks) that need a cold plan rebuild; never
        called by the ingest paths, which bump through :meth:`add_tw` /
        :meth:`replace_windows`.
        """
        self._version += 1

    def add_tw(self, snapshot: "TimeWindowSnapshot") -> None:
        """Ingest one time-window snapshot (a poll or an on-demand read).

        Keeps the store ascending by read time at insert (appends are
        the common case), applies the retention cap, and bumps the
        version exactly once.
        """
        self._ensure_bound()
        seq = self._next_seq
        self._next_seq += 1
        snapshot._store_seq = seq  # type: ignore[attr-defined]
        token = self._encode_tw(snapshot)
        entry = _TWEntry(seq, snapshot.read_time_ns, token, self._nbytes(token))
        entry.cached = snapshot
        self._insert_tw_entry(entry)

    def _insert_tw_entry(self, entry: _TWEntry) -> None:
        """Ordering, retention, and versioning for one time-window entry.

        Shared by the live ingest path (:meth:`add_tw`) and
        :meth:`MmapStore.open`, which rebuilds entries from a file, so both
        produce the same version/eviction history.
        """
        entries, keys = self._tw_entries, self._tw_keys
        if entries and entry.key < keys[-1]:
            i = bisect.bisect_right(keys, entry.key)
            entries.insert(i, entry)
            keys.insert(i, entry.key)
        else:
            entries.append(entry)
            keys.append(entry.key)
        self._seq_index[entry.seq] = entry
        self.tw_added += 1
        self.tw_bytes += entry.nbytes
        if len(entries) > self.retention.max_snapshots:
            self._evict_tw(0)
        self._version += 1

    def add_qm(self, snapshot: QueueMonitorSnapshot, *, bounded: bool = True) -> None:
        """Ingest one queue-monitor snapshot.

        ``bounded`` applies the retention cap (periodic polls); the
        on-demand read path appends unbounded, matching the historic
        behaviour.  Queue-monitor ingest does not bump the version: the
        compiled plan only covers time-window state.
        """
        self._ensure_bound()
        token = self._encode_qm(snapshot, bounded)
        entry = _QMEntry(snapshot.time_ns, snapshot.top, token, self._nbytes(token))
        entry.cached = snapshot
        self._insert_qm_entry(entry, bounded)

    def _insert_qm_entry(self, entry: _QMEntry, bounded: bool) -> None:
        entries = self._qm_entries
        if entries and entry.key < entries[-1].key:
            self._qm_sorted = False
        entries.append(entry)
        self.qm_added += 1
        self.qm_bytes += entry.nbytes
        if bounded and len(self._qm_entries) > self.retention.max_snapshots:
            old = self._qm_entries.pop(0)
            self.qm_bytes -= old.nbytes
            self.qm_evictions += 1

    def replace_windows(
        self, snapshot: "TimeWindowSnapshot", windows: List[FilteredWindow]
    ) -> None:
        """Replace a snapshot's windows (fault quarantine).

        Mutates the snapshot in place, drops its per-snapshot columnar
        memo, hands the backend the replacement (with the stored entry,
        or ``None`` when the snapshot was never stored or is already
        evicted), and bumps the version so the compiled-plan cache
        rebuilds without the quarantined cells.
        """
        snapshot.windows = windows
        if hasattr(snapshot, "_columnar_cache"):
            del snapshot._columnar_cache  # type: ignore[attr-defined]
        entry = self._seq_index.get(getattr(snapshot, "_store_seq", -1))
        if entry is not None:
            entry.cached = snapshot
        self._note_replaced(entry, snapshot)
        self.quarantine_replacements += 1
        self._version += 1

    # -- retention ---------------------------------------------------------

    def _evict_tw(self, index: int) -> None:
        old = self._tw_entries.pop(index)
        self._tw_keys.pop(index)
        self._seq_index.pop(old.seq, None)
        self.tw_bytes -= old.nbytes
        self.tw_evictions += 1

    def _note_replaced(
        self, entry: Optional[_TWEntry], snapshot: "TimeWindowSnapshot"
    ) -> None:
        """Hook: a snapshot's windows were replaced (quarantine).

        ``entry`` is the stored entry, or ``None`` for a snapshot the
        store does not hold; the version bumps either way.
        """

    # -- binding -----------------------------------------------------------

    def _ensure_bound(self) -> None:
        if not self._bound:
            self.bind({})

    def bind(self, meta: Dict[str, Any]) -> None:
        """Attach the run metadata (config fields, flags, retention).

        The first bind wins; later binds are no-ops so a replayed store
        (bound from its file's header) can be handed to a fresh
        ``AnalysisProgram`` without losing the recorded metadata.
        """
        if self._bound:
            return
        self.meta = dict(meta)
        self._bound = True
        self._on_bind()

    # -- read access -------------------------------------------------------

    def tw_view(self) -> SnapshotView:
        """Read-only live view of the time-window snapshots (ascending)."""
        return self._tw_view

    def qm_view(self) -> SnapshotView:
        """Read-only live view of the queue-monitor snapshots."""
        return self._qm_view

    def nearest_qm(self, time_ns: int) -> Optional[QueueMonitorSnapshot]:
        """The queue-monitor snapshot closest to ``time_ns`` (the earliest
        stored on a tie), chosen on the entry keys: only it is decoded.

        Polls and the reads a drive triggers store monitor snapshots in
        time order, so the keys are bisected.  A data-plane query issued
        after the fact (``mode="data_plane"`` at an earlier ``at_ns``)
        appends a key below the last one; from then on the store scans.
        """
        entries = self._qm_entries
        if not entries:
            return None
        if not self._qm_sorted:
            entry = min(entries, key=lambda e: abs(e.key - time_ns))
            return self._decode_entry_qm(entry)
        # Equal keys sit in storage order, so a key's first index is its
        # earliest stored entry; the smaller key wins a tie.
        hi = bisect.bisect_left(entries, time_ns, key=_qm_key)
        if hi == 0:
            return self._decode_entry_qm(entries[0])
        lo = bisect.bisect_left(entries, entries[hi - 1].key, hi=hi, key=_qm_key)
        below = entries[lo]
        if hi < len(entries) and entries[hi].key - time_ns < time_ns - below.key:
            return self._decode_entry_qm(entries[hi])
        return self._decode_entry_qm(below)

    def last_drained_qm_ns(self, time_ns: int, max_top: int) -> int:
        """The latest monitor key at/before ``time_ns`` whose stack top
        is at/below ``max_top``; with none, the first stored key at/before
        ``time_ns``; with none of those either, 0.  Nothing is decoded.

        Bisected while the keys are in storage order (see
        :meth:`nearest_qm`), scanned in storage order otherwise.
        """
        entries = self._qm_entries
        if not self._qm_sorted:
            candidates = [e for e in entries if e.key <= time_ns]
            drained = [e.key for e in candidates if e.top <= max_top]
            if drained:
                return max(drained)
            return candidates[0].key if candidates else 0
        hi = bisect.bisect_right(entries, time_ns, key=_qm_key)
        for i in range(hi - 1, -1, -1):
            if entries[i].top <= max_top:
                return entries[i].key
        return entries[0].key if hi else 0

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Counters and gauges for the ``pq_store_*`` metric family."""
        out: Dict[str, Any] = {"backend": self.backend}
        out.update(self.deterministic_stats())
        out.update(
            tw_bytes=self.tw_bytes,
            qm_bytes=self.qm_bytes,
            bytes_total=self.tw_bytes + self.qm_bytes,
            replay_position=self.replay_position,
        )
        return out

    def deterministic_stats(self) -> Dict[str, int]:
        """The backend-independent counters (the RunReport deterministic
        "store" section): identical between a live run and its replay,
        whatever tier either side used."""
        return {
            "version": self._version,
            "tw_snapshots": len(self._tw_entries),
            "qm_snapshots": len(self._qm_entries),
            "tw_added": self.tw_added,
            "qm_added": self.qm_added,
            "tw_evictions": self.tw_evictions,
            "qm_evictions": self.qm_evictions,
            "quarantine_replacements": self.quarantine_replacements,
        }
