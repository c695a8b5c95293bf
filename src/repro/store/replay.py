"""Deterministic replay of a recorded snapshot stream.

A PQSTORE1 file, written by a write-mode
:class:`~repro.store.mmapstore.MmapStore`, is the run's exact ingest
history.  Replaying reopens it as an ``MmapStore`` or feeds that history
through a fresh :class:`~repro.store.memory.MemoryStore`; because
retention is re-derived from the policy in the header, the rebuilt store
ends with the same version counter, eviction pattern, and snapshot
contents as the live run — so queries, fault coverage reports, and
benches re-run against it produce byte-identical answers.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.core.config import PrintQueueConfig
from repro.core.queries import QueryInterval
from repro.errors import StoreError
from repro.store import format as fmt
from repro.store.base import SnapshotStore
from repro.store.memory import MemoryStore
from repro.store.mmapstore import MmapStore
from repro.store.retention import RetentionPolicy

if TYPE_CHECKING:
    from repro.core.analysis import AnalysisProgram

BACKENDS = ("memory", "mmap")

_CONFIG_FIELDS = (
    "m0",
    "k",
    "alpha",
    "T",
    "link_rate_bps",
    "min_packet_bytes",
    "qm_levels",
    "qm_granularity",
    "qm_poll_period_ns",
    "num_ports",
)


def build_meta(
    config: PrintQueueConfig,
    d_ns: Optional[float],
    retention: RetentionPolicy,
    *,
    fractional_cells: bool,
    apply_coefficients: bool,
    model_dp_read_cost: bool,
) -> Dict[str, Any]:
    """The metadata a run binds to its store (a PQSTORE1 file's header)."""
    return {
        "kind": "printqueue-run",
        "config": {name: getattr(config, name) for name in _CONFIG_FIELDS},
        "d_ns": d_ns,
        "fractional_cells": fractional_cells,
        "apply_coefficients": apply_coefficients,
        "model_dp_read_cost": model_dp_read_cost,
        "retention": {"max_snapshots": retention.max_snapshots},
    }


def config_from_meta(meta: Dict[str, Any]) -> PrintQueueConfig:
    """Rebuild the run's :class:`PrintQueueConfig` from header metadata."""
    fields = meta.get("config")
    if not isinstance(fields, dict):
        raise StoreError(
            "recording header has no run configuration; was it recorded "
            "through AnalysisProgram?"
        )
    return PrintQueueConfig(**fields)


def _replay_into(store: SnapshotStore, buf: bytes, offset: int) -> int:
    """Feed the records of a recorded ingest stream into a fresh store.

    Replays every add/replace after the header (``offset``) in order
    through the normal mutating API, so version, retention, and eviction
    history evolve exactly as they did live.  Returns the number of
    records consumed.
    """
    position = 0
    for kind, off, _length in fmt.iter_records(buf, offset):
        position += 1
        if kind == fmt.REC_TW_ADD:
            store.add_tw(fmt.decode_tw(buf, off))
        elif kind == fmt.REC_QM_ADD:
            snapshot, bounded = fmt.decode_qm(buf, off)
            store.add_qm(snapshot, bounded=bounded)
        elif kind == fmt.REC_TW_REPLACE:
            target, replacement = fmt.decode_replace(buf, off)
            entry = store._seq_index.get(target)
            if entry is not None:
                victim = store._decode_entry_tw(entry)
                store.replace_windows(victim, replacement.windows)
            else:
                # The quarantined snapshot was never stored (or already
                # evicted): the live run still bumped the version.
                store.replace_windows(replacement, replacement.windows)
        else:
            raise StoreError(f"unknown record kind in stream: {kind}")
    return position


def replay_store(path: Union[str, Path], backend: str = "memory") -> SnapshotStore:
    """Rebuild a store of ``backend`` (``"memory"`` or ``"mmap"``) from a
    PQSTORE1 file, under the retention policy in its header."""
    if backend == "mmap":
        return MmapStore.open(path)
    if backend != "memory":
        raise StoreError(f"unknown store backend: {backend!r}")
    buf = Path(path).read_bytes()
    meta, offset = fmt.read_header(buf)
    store = MemoryStore(RetentionPolicy(**meta.get("retention", {})))
    store.bind(meta)
    store.replay_position = _replay_into(store, buf, offset)
    return store


def replay_analysis(
    path: Union[str, Path], backend: str = "memory"
) -> "AnalysisProgram":
    """Rebuild a queryable :class:`AnalysisProgram` from a recording."""
    # Local import: repro.core.analysis imports repro.store at module load.
    from repro.core.analysis import AnalysisProgram

    store = replay_store(path, backend)
    meta = store.meta
    config = config_from_meta(meta)
    return AnalysisProgram(
        config,
        d_ns=meta.get("d_ns"),
        fractional_cells=bool(meta.get("fractional_cells", False)),
        apply_coefficients=bool(meta.get("apply_coefficients", True)),
        model_dp_read_cost=bool(meta.get("model_dp_read_cost", True)),
        store=store,
    )


def default_probe_intervals(
    analysis: "AnalysisProgram", count: int
) -> List[QueryInterval]:
    """Deterministic probe intervals over a run's periodic snapshots.

    Used by ``repro store record --queries`` and ``repro store replay
    --check`` so both sides derive the same query set from the same
    snapshot stream: one interval per sampled periodic snapshot, ending
    at its read time and spanning one set period.
    """
    periodic = [s for s in analysis.tw_snapshots if s.source == "periodic"]
    span = analysis.config.set_period_ns
    intervals: List[QueryInterval] = []
    for snapshot in periodic[-count:]:
        end = snapshot.read_time_ns
        if end <= 0:
            continue
        intervals.append(QueryInterval(max(0, end - span), end))
    return intervals
