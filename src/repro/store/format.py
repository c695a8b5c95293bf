"""The PQSTORE1 binary register-dump format.

:class:`~repro.store.mmapstore.MmapStore` is its one writer (every frame
goes through ``MmapStore._append_record``); ``MmapStore.open`` and
:func:`~repro.store.replay.replay_store` are its two readers.

Layout (all integers little-endian, every record padded to 8 bytes so
``np.frombuffer`` views stay aligned):

* **File header** — magic ``b"PQSTORE1"``, ``u32 format_version``,
  ``u32 meta_len``, then ``meta_len`` bytes of UTF-8 JSON (the run
  metadata: config fields, flags, and ``"retention":
  {"max_snapshots": N}``, the one retention setting every reader
  re-derives evictions from), padded to 8.
* **Records** — ``u32 record_magic``, ``u32 kind``, ``u64 payload_len``,
  then the payload, padded to 8.  Kinds: ``TW_ADD`` (a stored
  time-window snapshot), ``QM_ADD`` (a queue-monitor snapshot), and
  ``TW_REPLACE`` (a fault quarantine replacing a stored snapshot's
  windows).

A **time-window payload** is ``i64 read_time_ns, i64 valid_from_ns,
u32 source, u32 num_windows, u32 num_flows, u32 reserved``, a flow table
of ``num_flows`` 16-byte entries (``u32 src_ip, u32 dst_ip,
u16 src_port, u16 dst_port, u8 proto`` + 3 pad), then per window
``u32 window_index, u32 shift, i64 reference_tts, u64 num_cells``
followed by the cells columnar: ``i64 tts[num_cells]`` then
``i32 flow_idx[num_cells]`` (indices into the flow table), padded to 8.
The TTS column is exactly the array the compiled query plan consumes,
so decoding from an mmap hands the plan a zero-copy read-only view.

A **queue-monitor payload** is ``i64 time_ns, i64 top, u32 flags,
u32 num_flows, u32 num_inc, u32 num_dec``, the flow table,
``i64 inc_seq[num_inc]``, ``i64 dec_seq[num_dec]``, then
``i32 inc_flow_idx[num_inc]`` (-1 for unset levels), padded to 8.
Flag bit 0 records whether the append was bounded by the retention cap
(periodic polls) or not (on-demand reads), so replay reproduces the
store's exact eviction history.  These three columns are the snapshot's
own arrays written with ``tobytes()``, and decoding hands them back as
read-only views into the buffer, as for the TTS column above.

A **replace payload** is ``i64 target_seq`` (the store-assigned sequence
number of the snapshot being replaced; -1 when the quarantined snapshot
was never stored) followed by a full time-window payload.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.filtering import FilteredWindow
from repro.core.queuemonitor import QueueMonitorSnapshot
from repro.errors import DecodeError, StoreError
from repro.switch.packet import FlowKey

MAGIC = b"PQSTORE1"
FORMAT_VERSION = 1
RECORD_MAGIC = 0x50513152  # "PQ1R"

REC_TW_ADD = 1
REC_QM_ADD = 2
REC_TW_REPLACE = 3

QM_FLAG_BOUNDED = 1

#: i64 sentinel for a ``reference_tts`` of None (empty window set).
_REF_NONE = -(1 << 63)

_HEADER = struct.Struct("<II")
_RECORD = struct.Struct("<IIQ")
_TW_HEAD = struct.Struct("<qqIIII")
_WINDOW_HEAD = struct.Struct("<IIqQ")
_QM_HEAD = struct.Struct("<qqIIII")
_FLOW_ENTRY = struct.Struct("<IIHHB3x")

_SOURCE_CODES = {"periodic": 0, "data-plane": 1}
_SOURCE_NAMES = {code: name for name, code in _SOURCE_CODES.items()}


def _pad8(n: int) -> bytes:
    return b"\x00" * (-n % 8)


# -- flow tables ----------------------------------------------------------


def _intern_index_column(
    parts: List[bytes], column: np.ndarray, table: Optional[Sequence[FlowKey]]
) -> Tuple[np.ndarray, int]:
    """Append ``column``'s snapshot-local flow table to ``parts``.

    ``column`` holds indices into the shared ``table``.  The local table
    is built with one :class:`FlowKey` pack per *distinct* flow in
    first-use order and the column remaps vectorised; returns
    ``(local indices, number of flows)``.
    """
    if len(column) == 0:
        parts.append(b"")
        return column, 0
    assert table is not None
    uniq, first = np.unique(column, return_index=True)
    uniq = uniq[np.argsort(first, kind="stable")]  # first-use order
    lookup = np.empty(int(uniq.max()) + 1, dtype=np.int64)
    lookup[uniq] = np.arange(len(uniq), dtype=np.int64)
    parts.append(
        b"".join(
            _FLOW_ENTRY.pack(f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto)
            for f in (table[j] for j in uniq.tolist())
        )
    )
    return lookup[column], len(uniq)


def _read_flow_table(buf: bytes, offset: int, count: int) -> List[FlowKey]:
    entries = buf[offset : offset + count * _FLOW_ENTRY.size]
    return [FlowKey(*fields) for fields in _FLOW_ENTRY.iter_unpack(entries)]


# -- file header ----------------------------------------------------------


def encode_header(meta: Dict[str, Any]) -> bytes:
    """Serialize the PQSTORE1 file header for ``meta``."""
    payload = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    head = MAGIC + _HEADER.pack(FORMAT_VERSION, len(payload)) + payload
    return head + _pad8(len(head))


def read_header(buf: bytes) -> Tuple[Dict[str, Any], int]:
    """Parse the file header; return ``(meta, first_record_offset)``."""
    if len(buf) < len(MAGIC) + _HEADER.size:
        raise DecodeError("store file too short for a PQSTORE1 header")
    if bytes(buf[: len(MAGIC)]) != MAGIC:
        raise DecodeError("bad magic: not a PQSTORE1 file")
    version, meta_len = _HEADER.unpack_from(buf, len(MAGIC))
    if version != FORMAT_VERSION:
        raise DecodeError(f"unsupported PQSTORE format version: {version}")
    start = len(MAGIC) + _HEADER.size
    if start + meta_len > len(buf):
        raise DecodeError("truncated header metadata")
    raw = bytes(buf[start : start + meta_len])
    try:
        meta = json.loads(raw.decode())
    except ValueError as exc:
        raise DecodeError(f"corrupt header metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise DecodeError("header metadata is not a JSON object")
    end = start + meta_len
    return meta, end + (-end % 8)


# -- record framing -------------------------------------------------------


def frame(kind: int, payload: bytes) -> bytes:
    """Wrap a payload in a framed, 8-byte-padded record."""
    head = _RECORD.pack(RECORD_MAGIC, kind, len(payload))
    return head + payload + _pad8(len(payload))


def iter_records(buf: bytes, offset: int) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(kind, payload_offset, payload_len)`` for each record."""
    size = len(buf)
    while offset < size:
        if offset + _RECORD.size > size:
            raise DecodeError(f"truncated record header at offset {offset}")
        magic, kind, payload_len = _RECORD.unpack_from(buf, offset)
        if magic != RECORD_MAGIC:
            raise DecodeError(f"bad record magic at offset {offset}")
        payload_off = offset + _RECORD.size
        if payload_off + payload_len > size:
            raise DecodeError(f"truncated record payload at offset {offset}")
        yield kind, payload_off, payload_len
        offset = payload_off + payload_len + (-payload_len % 8)


# -- time-window snapshots ------------------------------------------------


def encode_tw(snapshot: Any) -> bytes:
    """Encode a :class:`~repro.core.analysis.TimeWindowSnapshot` payload."""
    windows: List[FilteredWindow] = snapshot.windows
    # Every window's ``flow_idx`` column points into one shared flow
    # table: the cells of all windows intern as one column.
    table = windows[0].flow_table if windows else None
    if any(fw.flow_table is not table for fw in windows):
        raise StoreError("a snapshot's windows must share one flow table")
    table_parts: List[bytes] = []
    counts = [fw.cell_count for fw in windows]
    column = np.concatenate(
        [np.asarray(fw.flow_idx, dtype=np.int64) for fw in windows]
        + [np.empty(0, dtype=np.int64)]
    )
    local, num_flows = _intern_index_column(table_parts, column, table)
    indices = local.tolist()
    try:
        source = _SOURCE_CODES[snapshot.source]
    except KeyError:
        raise DecodeError(f"unknown snapshot source: {snapshot.source!r}")
    parts = [
        _TW_HEAD.pack(
            snapshot.read_time_ns,
            snapshot.valid_from_ns,
            source,
            len(windows),
            num_flows,
            0,
        ),
        table_parts[0],
    ]
    pos = 0
    for fw, count in zip(windows, counts):
        ref = _REF_NONE if fw.reference_tts is None else fw.reference_tts
        parts.append(_WINDOW_HEAD.pack(fw.window_index, fw.shift, ref, count))
        parts.append(np.ascontiguousarray(fw.tts_array, dtype="<i8").tobytes())
        idx = np.array(indices[pos : pos + count], dtype="<i4")
        parts.append(idx.tobytes())
        parts.append(_pad8(count * 12))
        pos += count
    payload = b"".join(parts)
    return payload + _pad8(len(payload))


def decode_tw(buf: bytes, offset: int) -> Any:
    """Decode a time-window payload into a ``TimeWindowSnapshot``.

    ``buf`` may be an ``mmap`` — the per-window TTS columns come back as
    read-only zero-copy views into it, which is exactly what the
    compiled query plan consumes.
    """
    # Local import: repro.core.analysis imports repro.store at module
    # load, so the snapshot class must resolve lazily here.
    from repro.core.analysis import TimeWindowSnapshot

    read_time_ns, valid_from_ns, source, num_windows, num_flows, _ = (
        _TW_HEAD.unpack_from(buf, offset)
    )
    if source not in _SOURCE_NAMES:
        raise DecodeError(f"unknown snapshot source code: {source}")
    pos = offset + _TW_HEAD.size
    flow_table = _read_flow_table(buf, pos, num_flows)
    pos += num_flows * _FLOW_ENTRY.size
    windows: List[FilteredWindow] = []
    for _ in range(num_windows):
        window_index, shift, ref, num_cells = _WINDOW_HEAD.unpack_from(buf, pos)
        pos += _WINDOW_HEAD.size
        tts = np.frombuffer(buf, dtype="<i8", count=num_cells, offset=pos)
        pos += num_cells * 8
        idx = np.frombuffer(buf, dtype="<i4", count=num_cells, offset=pos)
        pos += num_cells * 4
        pos += -num_cells * 12 % 8
        # Zero-copy bridge: the TTS and flow-index columns stay views
        # into ``buf`` (the mmap, for MmapStore), and the compiled query
        # plan interns straight off them.  Tuple/object views derive
        # lazily only if a scalar consumer asks.
        windows.append(
            FilteredWindow(
                window_index,
                shift,
                None if ref == _REF_NONE else ref,
                tts,
                idx,
                flow_table,
            )
        )
    return TimeWindowSnapshot(
        read_time_ns=read_time_ns,
        windows=windows,
        source=_SOURCE_NAMES[source],
        valid_from_ns=valid_from_ns,
    )


# -- queue-monitor snapshots ----------------------------------------------


def encode_qm(snapshot: QueueMonitorSnapshot, bounded: bool) -> bytes:
    """Encode a queue-monitor snapshot payload (its columns, dense)."""
    table_parts: List[bytes] = []
    inc_seq, inc_flow_idx, dec_seq = (
        snapshot.inc_seq,
        snapshot.inc_flow_idx,
        snapshot.dec_seq,
    )
    held = inc_flow_idx >= 0
    local, num_flows = _intern_index_column(
        table_parts, inc_flow_idx[held], snapshot.flow_table
    )
    indices = np.full(len(held), -1, dtype="<i4")
    indices[held] = local
    flags = QM_FLAG_BOUNDED if bounded else 0
    parts = [
        _QM_HEAD.pack(
            snapshot.time_ns,
            snapshot.top,
            flags,
            num_flows,
            len(inc_seq),
            len(dec_seq),
        ),
        table_parts[0],
        inc_seq.astype("<i8", copy=False).tobytes(),
        dec_seq.astype("<i8", copy=False).tobytes(),
        indices.tobytes(),
    ]
    payload = b"".join(parts)
    return payload + _pad8(len(payload))


def decode_qm(buf: bytes, offset: int) -> Tuple[QueueMonitorSnapshot, bool]:
    """Decode a queue-monitor payload; returns ``(snapshot, bounded)``.

    Like :func:`decode_tw`, the register columns come back as read-only
    zero-copy views into ``buf`` (the mmap, for MmapStore).
    """
    time_ns, top, flags, num_flows, num_inc, num_dec = _QM_HEAD.unpack_from(
        buf, offset
    )
    pos = offset + _QM_HEAD.size
    flow_table = _read_flow_table(buf, pos, num_flows)
    pos += num_flows * _FLOW_ENTRY.size
    inc_seq = np.frombuffer(buf, dtype="<i8", count=num_inc, offset=pos)
    pos += num_inc * 8
    dec_seq = np.frombuffer(buf, dtype="<i8", count=num_dec, offset=pos)
    pos += num_dec * 8
    snapshot = QueueMonitorSnapshot(
        time_ns=time_ns,
        top=top,
        inc_seq=inc_seq,
        inc_flow_idx=np.frombuffer(buf, dtype="<i4", count=num_inc, offset=pos),
        dec_seq=dec_seq,
        flow_table=flow_table,
    )
    return snapshot, bool(flags & QM_FLAG_BOUNDED)


def peek_tw_read_time(buf: bytes, offset: int) -> int:
    """A TW payload's ``read_time_ns`` without decoding the windows."""
    (read_time_ns,) = struct.unpack_from("<q", buf, offset)
    return read_time_ns


def peek_qm(buf: bytes, offset: int) -> Tuple[int, int, bool]:
    """A QM payload's ``(time_ns, top, bounded)`` without decoding it."""
    time_ns, top, flags, _, _, _ = _QM_HEAD.unpack_from(buf, offset)
    return time_ns, top, bool(flags & QM_FLAG_BOUNDED)


def peek_replace_target(buf: bytes, offset: int) -> int:
    """A replace payload's target sequence number."""
    (target_seq,) = struct.unpack_from("<q", buf, offset)
    return target_seq


# -- quarantine replacements ----------------------------------------------


def encode_replace(target_seq: int, snapshot: Any) -> bytes:
    """Encode a quarantine-replacement payload."""
    return struct.pack("<q", target_seq) + encode_tw(snapshot)


def decode_replace(buf: bytes, offset: int) -> Tuple[int, Any]:
    """Decode a replacement payload; returns ``(target_seq, snapshot)``."""
    (target_seq,) = struct.unpack_from("<q", buf, offset)
    return target_seq, decode_tw(buf, offset + 8)
