"""The disk tier: an append-only PQSTORE1 file read through ``mmap``.

This is the one writer of the format.  In write mode
(``MmapStore(path)``) the store journals every ingest event to its file
as it happens — adds, and every quarantine replacement, including one of
a snapshot it never stored (target ``-1``) — so **the file is the run's
recording**: ``repro store replay`` and :meth:`MmapStore.open` accept it
directly, and a flushed prefix of it is a valid recording too.  All
frames go through :meth:`MmapStore._append_record`.  Retention never
rewrites the log: evictions only drop in-memory entries, keeping the
on-disk stream a pure ingest history from which every reader re-derives
retention (the header carries the policy).

In read mode (:meth:`MmapStore.open`) the file is mapped read-only and
the record stream is ingested *without decoding*: each entry is a
``(offset, length)`` token into the map, and decoding happens lazily on
first access — the per-window TTS columns come back as ``np.frombuffer``
views straight into the mapped pages (zero-copy), which is what lets
compiled query plans build from disk without materialising the run.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Optional, Tuple, Union

from repro.core.queuemonitor import QueueMonitorSnapshot
from repro.errors import StoreError
from repro.store import format as fmt
from repro.store.base import SnapshotStore, _QMEntry, _TWEntry
from repro.store.retention import RetentionPolicy

if TYPE_CHECKING:
    from repro.core.analysis import TimeWindowSnapshot

Token = Tuple[int, int]  # (payload offset, payload length) within the file


class MmapStore(SnapshotStore):
    """Disk tier over the binary register-dump format."""

    backend = "mmap"

    def __init__(
        self,
        path: Union[str, Path],
        retention: Optional[RetentionPolicy] = None,
    ) -> None:
        super().__init__(retention)
        self.path = Path(path)
        self.readonly = False
        self._fh: IO[bytes] = open(self.path, "w+b")
        self._map: Optional[mmap.mmap] = None
        self._map_size = 0
        self._write_pos = 0

    @classmethod
    def open(cls, path: Union[str, Path]) -> "MmapStore":
        """Open an existing PQSTORE1 file read-only and ingest its stream.

        The retention policy is the one in the file's header, so the
        rebuilt store's version counter and evictions match the run that
        wrote the file.
        """
        fh: IO[bytes] = open(Path(path), "rb")
        fh.seek(0, 2)
        size = fh.tell()
        if size == 0:
            fh.close()
            raise StoreError(f"empty store file: {path}")
        mapped = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
        meta, first = fmt.read_header(mapped)
        retention = RetentionPolicy(**meta.get("retention", {}))
        store = cls.__new__(cls)
        SnapshotStore.__init__(store, retention)
        store.path = Path(path)
        store.readonly = True
        store._fh = fh
        store._map = mapped
        store._map_size = size
        store._write_pos = size
        store.bind(meta)
        store._ingest_existing(first)
        return store

    # -- write side --------------------------------------------------------

    def _on_bind(self) -> None:
        if self.readonly:
            return
        header = fmt.encode_header(self.meta)
        self._fh.write(header)
        self._write_pos = len(header)

    def _append_record(self, kind: int, payload: bytes) -> Token:
        if self.readonly:
            raise StoreError("store opened read-only")
        offset = self._write_pos + 16  # record header size
        data = fmt.frame(kind, payload)
        self._fh.write(data)
        self._write_pos += len(data)
        return offset, len(payload)

    def _encode_tw(self, snapshot: "TimeWindowSnapshot") -> Token:
        return self._append_record(fmt.REC_TW_ADD, fmt.encode_tw(snapshot))

    def _encode_qm(self, snapshot: QueueMonitorSnapshot, bounded: bool) -> Token:
        return self._append_record(fmt.REC_QM_ADD, fmt.encode_qm(snapshot, bounded))

    def _note_replaced(
        self, entry: Optional[_TWEntry], snapshot: "TimeWindowSnapshot"
    ) -> None:
        if self.readonly:
            return
        # Journal every replacement: readers re-derive the version bump
        # even when the target (-1) was never stored.
        target = entry.seq if entry is not None else -1
        offset, length = self._append_record(
            fmt.REC_TW_REPLACE, fmt.encode_replace(target, snapshot)
        )
        if entry is None:
            return
        self.tw_bytes += (length - 8) - entry.nbytes
        entry.token = (offset + 8, length - 8)
        entry.nbytes = length - 8

    # -- read side ---------------------------------------------------------

    def _buffer(self) -> mmap.mmap:
        if self._map is None or self._map_size < self._write_pos:
            if not self.readonly:
                self._fh.flush()
            if self._map is not None:
                self._map.close()
            self._map = mmap.mmap(
                self._fh.fileno(), self._write_pos, access=mmap.ACCESS_READ
            )
            self._map_size = self._write_pos
        return self._map

    def _decode_tw(self, token: Any) -> "TimeWindowSnapshot":
        offset, _ = token
        return fmt.decode_tw(self._buffer(), offset)

    def _decode_qm(self, token: Any) -> QueueMonitorSnapshot:
        offset, _ = token
        return fmt.decode_qm(self._buffer(), offset)[0]

    def _nbytes(self, token: Any) -> int:
        return int(token[1])

    def _ingest_existing(self, first_offset: int) -> None:
        buf = self._buffer()
        for kind, off, length in fmt.iter_records(buf, first_offset):
            self.replay_position += 1
            if kind == fmt.REC_TW_ADD:
                seq = self._next_seq
                self._next_seq += 1
                entry = _TWEntry(
                    seq, fmt.peek_tw_read_time(buf, off), (off, length), length
                )
                self._insert_tw_entry(entry)
            elif kind == fmt.REC_QM_ADD:
                time_ns, top, bounded = fmt.peek_qm(buf, off)
                entry = _QMEntry(time_ns, top, (off, length), length)
                self._insert_qm_entry(entry, bounded)
            elif kind == fmt.REC_TW_REPLACE:
                target = fmt.peek_replace_target(buf, off)
                victim = self._seq_index.get(target)
                if victim is not None:
                    self.tw_bytes += (length - 8) - victim.nbytes
                    victim.token = (off + 8, length - 8)
                    victim.nbytes = length - 8
                    victim.cached = None
                self.quarantine_replacements += 1
                self._version += 1
            else:
                raise StoreError(f"unknown record kind in {self.path}: {kind}")

    # -- lifecycle ---------------------------------------------------------

    def flush(self) -> None:
        """Write buffered frames through, so the file is a valid prefix."""
        if not self.readonly:
            self._fh.flush()

    def close(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None
        if not self._fh.closed:
            if not self.readonly:
                self._fh.flush()
            self._fh.close()
