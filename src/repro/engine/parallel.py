"""Process-pool fan-out of independent experiment cells, with caching.

The figure benches repeatedly evaluate independent (workload, config,
port) cells — one full trace simulation plus victim scoring per cell.
Cells share nothing, so they parallelise perfectly across cores:
:class:`ParallelSweep` maps a picklable worker over the cells with a
:class:`concurrent.futures.ProcessPoolExecutor`, memoising each cell's
result in a :class:`ResultCache` so repeated requests (benches sharing a
workload) pay for the simulation once.

The default worker, :func:`evaluate_cell`, runs the whole
simulate → sample victims → score pipeline inside the child process and
returns only the compact :class:`CellResult`, keeping pickling traffic
small.  The pool degrades gracefully to in-process execution where
subprocesses are unavailable (sandboxes, restricted CI).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from pickle import PicklingError
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.config import PrintQueueConfig
from repro.obs.metrics import Metrics

#: Environment override for the default bounded pool wait (seconds).
POOL_TIMEOUT_ENV = "REPRO_POOL_TIMEOUT_S"

#: Default per-future wait before a pool worker is declared stuck.  Far
#: above any real cell runtime, so it only fires on genuine hangs; the
#: sweep then abandons the pool and falls back in-process.
DEFAULT_POOL_TIMEOUT_S = 600.0


def default_pool_timeout_s() -> Optional[float]:
    """The configured bounded pool wait: env override or the default.

    ``REPRO_POOL_TIMEOUT_S=0`` (or negative) disables the bound and
    restores the old wait-forever behaviour.
    """
    raw = os.environ.get(POOL_TIMEOUT_ENV)
    if raw is None:
        return DEFAULT_POOL_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_POOL_TIMEOUT_S
    return value if value > 0 else None


#: canonical instance per distinct config value (see :func:`intern_config`).
_CONFIG_INTERN: Dict[PrintQueueConfig, PrintQueueConfig] = {}


def intern_config(config: PrintQueueConfig) -> PrintQueueConfig:
    """Return the canonical shared instance for this config value.

    Figure benches build hundreds of :class:`SweepCell`\\ s whose configs
    are equal but freshly constructed, so every cell used to carry (and
    the cache key, hash, and pool pickling to touch) its own copy.
    Interning collapses equal values to one shared instance: cache-key
    equality short-circuits on identity and a sweep's cells reference a
    single config object apiece.
    """
    return _CONFIG_INTERN.setdefault(config, config)


@dataclass(frozen=True)
class SweepCell:
    """One independent experiment cell of a figure-style sweep."""

    workload: str
    config: PrintQueueConfig
    duration_ns: int
    load: float = 1.15
    seed: int = 42
    #: port id the cell models (cells of a multi-port sweep differ only in
    #: accounting, but keying on the port keeps their results distinct).
    port: int = 0
    victims_per_band: int = 20
    #: fault-injection profile name (repro.faults) the cell's simulation
    #: runs under; None (the default) keeps the perfect control channel.
    faults: Optional[str] = None


@dataclass
class CellResult:
    """Compact, picklable outcome of one evaluated cell."""

    cell: SweepCell
    accuracy: Dict[str, float]
    per_band: Dict[str, Dict[str, float]]
    num_records: int
    drops: int
    storage_mbps: float
    sram_fraction: float


def evaluate_cell(cell: SweepCell) -> CellResult:
    """Simulate one cell and score asynchronous queries per depth band.

    Every sampled victim across all bands is scored in a single batched
    ``pq.query(intervals=...)`` pass (one snapshot compile instead of one
    per band), then the per-band summaries are sliced from the shared
    score map.  Per-victim scores are order-independent, so the numbers
    match the old band-by-band scalar loops exactly.

    Module-level (not a closure) so a process pool can pickle it by
    reference; imports are local to keep worker start-up lazy.
    """
    from repro.experiments.evaluation import evaluate_async_queries
    from repro.experiments.runner import simulate_workload
    from repro.experiments.sampling import band_label, sample_victims_by_band
    from repro.metrics.accuracy import summarize_scores
    from repro.metrics.overhead import printqueue_storage_mbps, sram_utilization

    run = simulate_workload(
        cell.workload,
        duration_ns=cell.duration_ns,
        load=cell.load,
        config=cell.config,
        seed=cell.seed,
        faults=cell.faults,
    )
    victims = sample_victims_by_band(run.records, per_band=cell.victims_per_band)
    union = sorted({i for indices in victims.values() for i in indices})
    scores = evaluate_async_queries(run.pq, run.taxonomy, run.records, union)
    by_index = dict(zip(union, scores))
    per_band: Dict[str, Dict[str, float]] = {}
    for band, indices in victims.items():
        if not indices:
            continue
        per_band[band_label(band)] = summarize_scores(
            [by_index[i] for i in indices]
        )
    accuracy = summarize_scores(scores)
    return CellResult(
        cell=cell,
        accuracy=accuracy,
        per_band=per_band,
        num_records=len(run.records),
        drops=run.drops,
        storage_mbps=printqueue_storage_mbps(cell.config),
        sram_fraction=sram_utilization(cell.config),
    )


class ResultCache:
    """A keyed result cache with hit/miss accounting.

    Replaces the bare module-level dictionaries the benchmark harness
    used to share simulation runs, and doubles as the per-cell memo of
    :class:`ParallelSweep`.
    """

    def __init__(self) -> None:
        self._data: Dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> Optional[Any]:
        return self._data.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value

    def get_or(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        if key in self._data:
            self.hits += 1
            return self._data[key]
        self.misses += 1
        value = compute()
        self._data[key] = value
        return value

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0


@dataclass
class _WorkerFailure:
    """Sentinel a guarded pool worker returns instead of raising.

    Carrying the exception back as a *value* keeps worker bugs separable
    from pool-infrastructure failures: a raising worker used to surface
    through ``pool.map`` as e.g. a bare ``TypeError`` and get silently
    swallowed by the no-subprocess-support fallback, re-running the bad
    cell serially just to crash again.
    """

    exception: BaseException


def _guarded(worker: Callable[[Any], Any], cell: Any) -> Any:
    """Run ``worker(cell)`` in a child, boxing exceptions as values.

    Module-level so ``functools.partial(_guarded, worker)`` pickles by
    reference whenever ``worker`` itself does.
    """
    try:
        return worker(cell)
    except Exception as exc:  # noqa: BLE001 - boxed and re-raised in parent
        return _WorkerFailure(exc)


class ParallelSweep:
    """Fan a worker over independent cells with per-cell caching.

    Failure handling separates three distinct things that can go wrong:

    * **The worker raised** (a genuine bug or a flaky cell) — the
      exception comes back boxed as :class:`_WorkerFailure`; the cell is
      retried in-process up to ``cell_retries`` times, then the original
      exception is re-raised to the caller.  Worker bugs are never
      masked as "no subprocess support".
    * **The pool broke** (a worker process died: crash, OOM kill) —
      ``BrokenProcessPool``; surviving results are kept, a fresh pool is
      started for the remaining cells up to ``max_pool_restarts`` times,
      then execution degrades to serial.
    * **The pool can't be used at all** (sandboxes without subprocess
      support, non-picklable workers such as lambdas) — submission-time
      ``PicklingError``/``AttributeError``/``TypeError``/``OSError``/
      ``RuntimeError``; execution degrades to serial immediately.

    Parameters
    ----------
    worker:
        Picklable callable mapped over the cells; defaults to
        :func:`evaluate_cell`.
    max_workers:
        Pool size; defaults to the CPU count.  ``1`` forces in-process
        execution (no pool).
    cache:
        Optional shared :class:`ResultCache`; a private one is created
        otherwise.  Cells must be hashable to act as cache keys.
    cell_retries:
        In-process retries granted to a cell whose worker raised before
        the exception propagates (default 1 — one second chance).
    max_pool_restarts:
        Fresh pools started after a ``BrokenProcessPool`` before falling
        back to serial execution (default 1).
    timeout_s:
        Bounded wait per pooled cell result.  ``None`` (the default)
        uses :func:`default_pool_timeout_s` (600 s, or the
        ``REPRO_POOL_TIMEOUT_S`` env override; ``<= 0`` disables the
        bound).  An expired wait abandons the pool (no blocking join on
        the stuck worker), ticks ``pq_pool_timeouts_total``, and falls
        back to the in-process path.
    metrics:
        Optional :class:`~repro.obs.metrics.Metrics` registry for the
        ``pq_pool_timeouts_total`` counter.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any] = evaluate_cell,
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        cell_retries: int = 1,
        max_pool_restarts: int = 1,
        timeout_s: Optional[float] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.worker = worker
        self.max_workers = max_workers
        self.cache = cache if cache is not None else ResultCache()
        self.cell_retries = cell_retries
        self.max_pool_restarts = max_pool_restarts
        if timeout_s is None:
            self.timeout_s: Optional[float] = default_pool_timeout_s()
        else:
            self.timeout_s = timeout_s if timeout_s > 0 else None
        self.metrics = metrics
        #: how the last run() executed: "pool", "serial", or "cached"
        self.last_execution = "cached"
        #: pools restarted after BrokenProcessPool (lifetime counter).
        self.pool_restarts = 0
        #: in-process retries consumed by failing cells (lifetime counter).
        self.cell_retries_used = 0
        #: bounded waits that expired on a pooled future (lifetime counter).
        self.pool_timeouts = 0

    @staticmethod
    def _intern_cell(cell: Hashable) -> Hashable:
        """Swap a SweepCell's config for the interned shared instance."""
        if isinstance(cell, SweepCell):
            canonical = intern_config(cell.config)
            if canonical is not cell.config:
                cell = replace(cell, config=canonical)
        return cell

    def run(self, cells: Sequence[Hashable]) -> List[Any]:
        """Evaluate every cell (cache-first), preserving input order."""
        cells = [self._intern_cell(c) for c in cells]
        missing = [c for c in dict.fromkeys(cells) if c not in self.cache]
        self.cache.hits += len(cells) - len(missing)
        self.cache.misses += len(missing)
        if missing:
            self._evaluate(missing)
        else:
            self.last_execution = "cached"
        return [self.cache.get(c) for c in cells]

    def _evaluate(self, cells: List[Hashable]) -> None:
        workers = self.max_workers or os.cpu_count() or 1
        workers = min(workers, len(cells))
        if workers > 1 and self._evaluate_pool(cells, workers):
            return
        for cell in cells:
            if cell not in self.cache:
                self.cache.put(cell, self._run_cell(cell))
        self.last_execution = "serial"

    def _note_pool_timeout(self) -> None:
        """Account one expired bounded wait (counter + registry tick)."""
        self.pool_timeouts += 1
        if self.metrics is not None:
            self.metrics.counter("pq_pool_timeouts_total").inc()

    def _evaluate_pool(self, cells: List[Hashable], workers: int) -> bool:
        """Pool execution; returns False to request the serial fallback."""
        remaining = list(cells)
        restarts_left = self.max_pool_restarts
        guarded = partial(_guarded, self.worker)
        while True:
            failures: List[Tuple[Hashable, BaseException]] = []
            # Managed by hand (not `with`): a `with` exit joins the pool,
            # and after a bounded wait expired that join would block on
            # the very worker we just declared stuck.
            pool = ProcessPoolExecutor(max_workers=workers)
            wait_on_shutdown = True
            try:
                futures = [(cell, pool.submit(guarded, cell)) for cell in remaining]
                for cell, future in futures:
                    # Bounded wait (the old pool.map iterator waited
                    # forever); FuturesTimeout is caught below, before
                    # the generic taxonomy — on 3.11+ it aliases the
                    # builtin TimeoutError, an OSError subclass.
                    result = future.result(timeout=self.timeout_s)
                    if isinstance(result, _WorkerFailure):
                        failures.append((cell, result.exception))
                    else:
                        self.cache.put(cell, result)
            except BrokenProcessPool:
                # Pool infrastructure died under us (worker process
                # crashed or was killed).  Results cached before the
                # break are kept; restart a fresh pool for the rest.
                remaining = [c for c in remaining if c not in self.cache]
                if restarts_left > 0 and remaining:
                    restarts_left -= 1
                    self.pool_restarts += 1
                    continue
                return False
            except FuturesTimeout:
                # A worker exceeded the bounded wait.  Abandon the pool
                # (shutdown without joining the stuck process), tick the
                # timeout counter, and serve the remaining cells via the
                # existing in-process fallback path.
                self._note_pool_timeout()
                wait_on_shutdown = False
                return False
            except (PicklingError, AttributeError, TypeError, OSError, RuntimeError):
                # No subprocess support here (sandbox, restricted CI) or a
                # non-picklable worker/result (closures and lambdas fail
                # with AttributeError/TypeError): fall back to one core.
                return False
            finally:
                pool.shutdown(wait=wait_on_shutdown, cancel_futures=not wait_on_shutdown)
            # Genuine worker exceptions: retry in-process, then re-raise.
            for cell, exc in failures:
                self.cache.put(cell, self._retry_cell(cell, exc))
            self.last_execution = "pool"
            return True

    def _run_cell(self, cell: Hashable) -> Any:
        """Serial-path evaluation with the same per-cell retry budget."""
        try:
            return self.worker(cell)
        except Exception as exc:
            return self._retry_cell(cell, exc)

    def _retry_cell(self, cell: Hashable, exc: BaseException) -> Any:
        """Re-run a failed cell in-process; re-raise when retries run out."""
        for _ in range(self.cell_retries):
            self.cell_retries_used += 1
            try:
                return self.worker(cell)
            except Exception as retry_exc:
                exc = retry_exc
        raise exc
