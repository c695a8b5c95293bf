"""Near-zero-overhead metric instruments and the :class:`Metrics` registry.

The hot structures (:class:`~repro.core.windowset.TimeWindowSet`,
:class:`~repro.core.queuemonitor.QueueMonitor`, the register banks) keep
their event counts as plain integer attributes, updated inline — that is
the data-plane half, cheap enough to stay on unconditionally, and the
reason the scalar and pipeline ingest paths can assert counter-for-counter
equality.  This module is the control-plane half: a registry of named
instruments that the instrumentation points *publish into* (query
latencies, batch sizes, ingest timings) or that collectors *pull* the
structure counters into at read time.

Three instrument kinds, mirroring the usual exposition conventions:

* :class:`Counter` — a monotonically increasing integer.
* :class:`Gauge` — a point-in-time value (may go up or down).
* :class:`Histogram` — fixed log₂ buckets: an observation ``v`` lands in
  bucket ``v.bit_length()``, i.e. bucket ``b`` covers ``[2^(b-1), 2^b)``
  (bucket 0 holds zero/negative observations).  Fixed buckets keep
  ``observe`` allocation-free and make histograms mergeable across runs.

Instruments are identified by ``(name, labels)``; the registry
get-or-creates on access, so instrumentation points simply ask for what
they need.  :meth:`Metrics.to_prometheus` renders the whole registry in
the text exposition format; :meth:`Metrics.snapshot` returns a plain
JSON-ready dict.

Concurrency and ownership
-------------------------

A registry has exactly one *owner* surface (a port, a switch, a
diagnosis service) but may be written from several threads at once: the
always-on service shares one registry between its ingest task and its
query handlers, and load drivers observe latencies from client threads.
The contract:

* **Increment paths are thread-safe.**  ``Counter.inc``,
  ``Histogram.observe``, ``Gauge.set_max`` and registry get-or-create
  (``counter``/``gauge``/``histogram``) take a lock, so concurrent
  increments never lose updates.  ``Gauge.set`` is a single attribute
  store (atomic under the GIL) and stays lock-free.
* **Read paths are point-in-time.**  ``snapshot``/``to_prometheus`` may
  run concurrently with writers; each instrument's snapshot is
  internally consistent (taken under its lock) but the registry-wide
  view is not a global atomic cut — fine for exposition.
* **The timeline is owner-written.**  ``sample`` is called only by the
  owning port's poll loop; it appends under the registry lock so a
  concurrent reader never sees a torn list.

The locks are per-instrument and uncontended on the hot paths (the
data-plane structure counters stay plain integer attributes on the
structures themselves; instruments tick per batch/query, not per
packet), so the overhead is unobservable in the ingest benchmarks.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "MAX_LOG2_BUCKETS",
]

#: Histogram bucket count: bucket 63 absorbs anything >= 2^62, far beyond
#: any nanosecond latency or batch size this codebase can produce.
MAX_LOG2_BUCKETS = 64

#: (name, sorted (key, value) label pairs) — the registry key.
_InstrumentKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: The three instrument kinds the registry can get-or-create.
_InstrumentT = TypeVar("_InstrumentT", "Counter", "Gauge", "Histogram")


class Counter:
    """A monotonically increasing integer metric (thread-safe)."""

    __slots__ = ("value", "_lock")

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        # `self.value += amount` is a read-modify-write; the lock keeps
        # concurrent ingest-task / query-handler increments from losing
        # updates (see the module docstring's ownership model).
        with self._lock:
            self.value += amount

    def snapshot(self) -> int:
        return self.value

    # Locks don't pickle; a registry travels inside a pickled port, so
    # every instrument drops its lock on the way out and recreates it
    # on the way back in.
    def __getstate__(self) -> int:
        return self.value

    def __setstate__(self, state: int) -> None:
        self.value = state
        self._lock = threading.Lock()


class Gauge:
    """A point-in-time value; ``set`` overwrites, ``set_max`` keeps peaks."""

    __slots__ = ("value", "_lock")

    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        # Single attribute store: atomic under the GIL, lock-free.
        self.value = value

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self.value:
                self.value = value

    def snapshot(self) -> float:
        return self.value

    def __getstate__(self) -> float:
        return self.value

    def __setstate__(self, state: float) -> None:
        self.value = state
        self._lock = threading.Lock()


class Histogram:
    """Fixed log₂-bucket histogram of non-negative observations.

    Bucket ``b`` counts observations whose integer part has bit length
    ``b``: bucket 0 is exactly zero, bucket 1 is ``[1, 2)``, bucket 2 is
    ``[2, 4)``, …, so bucket upper bounds are ``2^b - 1``.  ``sum`` and
    ``count`` are tracked exactly, so means stay precise even though the
    distribution is quantised.
    """

    __slots__ = ("counts", "count", "sum", "_lock")

    kind = "histogram"

    def __init__(self) -> None:
        self.counts: List[int] = [0] * MAX_LOG2_BUCKETS
        self.count = 0
        self.sum = 0
        self._lock = threading.Lock()

    def observe(self, value: int) -> None:
        v = int(value)
        bucket = v.bit_length() if v > 0 else 0
        if bucket >= MAX_LOG2_BUCKETS:
            bucket = MAX_LOG2_BUCKETS - 1
        with self._lock:
            self.counts[bucket] += 1
            self.count += 1
            self.sum += v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """``(upper_bound, count)`` for every occupied bucket, ascending."""
        return [
            ((1 << b) - 1, c) for b, c in enumerate(self.counts) if c
        ]

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self.counts)
            count = self.count
            total = self.sum
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "buckets": {
                str((1 << b) - 1): c for b, c in enumerate(counts) if c
            },
        }

    def __getstate__(self) -> Tuple[List[int], int, int]:
        return (self.counts, self.count, self.sum)

    def __setstate__(self, state: Tuple[List[int], int, int]) -> None:
        self.counts, self.count, self.sum = state
        self._lock = threading.Lock()


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(pairs: Tuple[Tuple[str, str], ...]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + inner + "}"


class Metrics:
    """A registry of named instruments with get-or-create access.

    One registry is owned per run surface (a :class:`PrintQueuePort`, a
    :class:`~repro.switch.switchsim.Switch`) and every instrumentation
    point publishes into it.  ``sample`` additionally records a named
    point-in-time snapshot (the poll-boundary timeline that
    :class:`~repro.obs.report.RunReport` serialises).
    """

    def __init__(self) -> None:
        self._instruments: Dict[_InstrumentKey, Any] = {}
        #: poll-boundary timeline: (time_ns, {counter name: value}).
        self.samples: List[Tuple[int, Dict[str, int]]] = []
        # Guards get-or-create; instrument *updates* use per-instrument
        # locks (module docstring: "Concurrency and ownership").
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        state = {
            "_instruments": self._instruments,
            "samples": self.samples,
        }
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._instruments = state["_instruments"]
        self.samples = state["samples"]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Tuple[_InstrumentKey, Any]]:
        return iter(sorted(self._instruments.items()))

    def _get(
        self,
        cls: Type[_InstrumentT],
        name: str,
        labels: Dict[str, Any],
    ) -> _InstrumentT:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            # Lock only the create path: the dict lookup above is atomic
            # under the GIL, and setdefault keeps a concurrent creator's
            # instrument instead of clobbering it.
            with self._lock:
                instrument = self._instruments.setdefault(key, cls())
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def sample(self, time_ns: int, values: Dict[str, int]) -> None:
        """Record one poll-boundary snapshot of key counters."""
        # Poll-boundary frequency, so the lock is cheap — and it keeps
        # the timeline intact if a reader snapshots mid-append.
        with self._lock:
            self.samples.append((time_ns, values))

    def find(self, name: str, **labels: Any) -> Optional[Any]:
        """The instrument registered under (name, labels), if any."""
        return self._instruments.get((name, _label_key(labels)))

    # -- exposition ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dict: ``{name{labels}: value-or-histogram-dict}``."""
        out: Dict[str, Any] = {}
        for (name, pairs), instrument in self:
            out[name + _render_labels(pairs)] = instrument.snapshot()
        return out

    def to_prometheus(self) -> str:
        """Prometheus-style text exposition of every instrument."""
        lines: List[str] = []
        seen_types: Dict[str, str] = {}
        for (name, pairs), instrument in self:
            if name not in seen_types:
                seen_types[name] = instrument.kind
                lines.append(f"# TYPE {name} {instrument.kind}")
            labels = _render_labels(pairs)
            if isinstance(instrument, Histogram):
                cumulative = 0
                for upper, count in instrument.nonzero_buckets():
                    cumulative += count
                    le = dict(pairs, le=str(upper))
                    lines.append(
                        f"{name}_bucket{_render_labels(_label_key(le))}"
                        f" {cumulative}"
                    )
                inf = dict(pairs, le="+Inf")
                lines.append(
                    f"{name}_bucket{_render_labels(_label_key(inf))}"
                    f" {instrument.count}"
                )
                lines.append(f"{name}_sum{labels} {instrument.sum}")
                lines.append(f"{name}_count{labels} {instrument.count}")
            else:
                lines.append(f"{name}{labels} {instrument.snapshot()}")
        return "\n".join(lines) + ("\n" if lines else "")
