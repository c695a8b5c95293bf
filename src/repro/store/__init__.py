"""Pluggable snapshot stores for the control-plane analysis program.

Two tiers behind one interface (:class:`SnapshotStore`):

* :class:`MemoryStore` — the default tier; live Python objects,
  bit-identical to the historic in-process lists.
* :class:`MmapStore` — the disk tier and the one writer of the PQSTORE1
  format: an append-only binary register-dump log, read back through
  ``mmap`` with zero-copy TTS columns.  The file is the run's recording.

Plus :class:`RetentionPolicy` (one count cap, recorded in the file
header), and the replay helpers that rebuild a deterministic, queryable
store from a PQSTORE1 file.
"""

from repro.store.base import SnapshotStore, SnapshotView
from repro.store.memory import MemoryStore
from repro.store.mmapstore import MmapStore
from repro.store.replay import (
    BACKENDS,
    build_meta,
    config_from_meta,
    default_probe_intervals,
    replay_analysis,
    replay_store,
)
from repro.store.retention import RetentionPolicy

__all__ = [
    "BACKENDS",
    "MemoryStore",
    "MmapStore",
    "RetentionPolicy",
    "SnapshotStore",
    "SnapshotView",
    "build_meta",
    "config_from_meta",
    "default_probe_intervals",
    "replay_analysis",
    "replay_store",
]
