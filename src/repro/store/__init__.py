"""Pluggable snapshot stores for the control-plane analysis program.

Three tiers behind one interface (:class:`SnapshotStore`):

* :class:`MemoryStore` — the default hot tier; live Python objects,
  bit-identical to the historic in-process lists.
* :class:`MmapStore` — the disk tier; an append-only binary
  register-dump log read back through ``mmap`` with zero-copy TTS
  columns, doubling as a recording.
* :class:`CompressedStore` — the cold tier; zlib-compressed payloads
  decompressed on access.

Plus :class:`RetentionPolicy` (count caps and deep-window thinning),
:class:`Recorder` (mirror a run's ingest stream to disk), and the
replay helpers that rebuild a deterministic, queryable store from a
recording.
"""

from repro.store.base import SnapshotStore, SnapshotView
from repro.store.cold import CompressedStore
from repro.store.memory import MemoryStore
from repro.store.mmapstore import MmapStore
from repro.store.recording import Recorder
from repro.store.replay import (
    BACKENDS,
    build_meta,
    config_from_meta,
    default_probe_intervals,
    read_recording,
    replay_analysis,
    replay_store,
)
from repro.store.retention import RetentionPolicy

__all__ = [
    "BACKENDS",
    "CompressedStore",
    "MemoryStore",
    "MmapStore",
    "Recorder",
    "RetentionPolicy",
    "SnapshotStore",
    "SnapshotView",
    "build_meta",
    "config_from_meta",
    "default_probe_intervals",
    "read_recording",
    "replay_analysis",
    "replay_store",
]
