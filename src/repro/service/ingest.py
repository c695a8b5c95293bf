"""Live ingest: phase-at-a-time pipeline driving plus a restarting supervisor.

:class:`LiveIngest` wraps an ingest pipeline's ``steps()`` generator
(:meth:`repro.engine.ingest.IngestPipeline.steps`) and pulls it one
kernel phase per turn — a poll, a queue-monitor write-back or a window
absorb — so an asyncio task can interleave ingest with query serving and
never blocks the loop for longer than the largest phase.
:class:`IngestSupervisor` owns the drive loop, its place in the event
loop's schedule and the restart contract.

Scheduling (queries before phases): between phases the supervisor yields
behind the I/O already waiting on the loop, then awaits its
``before_phase`` barrier — in the service, "every query admitted so far
has been answered" — so a request that arrives while a phase runs waits
for that phase, not for one phase per event-loop hop of its way through
the service.  Queries read stored snapshots only, so an answer given
between two phases is the answer it would be between two steps.

Restarts:

* a crash *around* the generator (the drive loop, a chaos hook, task
  plumbing) is **restartable**: the supervisor backs off exponentially
  (bounded) and resumes pulling from the same generator — no ingest
  state is lost;
* a crash *inside* the generator is **fail-stop**: a Python generator
  that raised is finished, and rebuilding mid-stream could not be
  bit-identical to an uninterrupted run, so the supervisor marks ingest
  ``failed`` and surfaces :class:`~repro.errors.IngestFailed` instead of
  serving silently wrong snapshots.  (Injected *read* faults never take
  this path — the resilient poller inside the pipeline degrades them to
  coverage loss, which is the point of running under fault profiles.)
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Awaitable, Callable, Iterator, Optional

from repro.errors import IngestFailed
from repro.obs.metrics import Metrics


class LiveIngest:
    """Phase-at-a-time pull over a pipeline ``steps()`` generator.

    With ``metrics`` it also keeps the **freshness** gauge
    ``pq_service_freshness_ms`` (mirrored in :attr:`freshness_ms`): the
    wall-clock age, at the store version bump that publishes them, of the
    oldest events absorbed since the previous publication.  Both instants
    are read when a phase returns — events when the absorb that completed
    them returns, the bump when the poll that made it returns, which is
    also the first moment a query can read it.  Without ``metrics`` no
    clock or version is read.
    """

    def __init__(self, pipeline: object, metrics: Optional[Metrics] = None) -> None:
        self.pipeline = pipeline
        self._gen: Iterator[int] = pipeline.steps()  # type: ignore[attr-defined]
        #: ``idle`` → ``running`` → ``drained`` | ``failed``
        self.status = "idle"
        self.events_ingested = 0
        #: phases run (every turn counts, a poll or a write-back too).
        self.chunks_ingested = 0
        #: the last publication's freshness (ms); None until one is seen.
        self.freshness_ms: Optional[float] = None
        if metrics is not None:
            self._store = pipeline.pq.analysis.store  # type: ignore[attr-defined]
            self._published = self._store.version
            self._obs_freshness = metrics.gauge("pq_service_freshness_ms")
        else:
            self._obs_freshness = None
        #: when the oldest unpublished events were absorbed (perf_counter s).
        self._unpublished_since: Optional[float] = None

    def _note_phase(self, absorbed: bool) -> None:
        """Freshness bookkeeping after one pipeline phase returned."""
        now = perf_counter()
        version = self._store.version
        if version != self._published:
            # A poll publishes what earlier absorbs completed.
            self._published = version
            if self._unpublished_since is not None:
                self.freshness_ms = (now - self._unpublished_since) * 1e3
                self._obs_freshness.set(self.freshness_ms)
            self._unpublished_since = None
        if absorbed and self._unpublished_since is None:
            self._unpublished_since = now

    def step_phase(self) -> bool:
        """Run one kernel phase; False when the log is done.

        A generator-internal crash poisons this ingest permanently
        (fail-stop): the exception is wrapped in
        :class:`~repro.errors.IngestFailed` and every later call returns
        False with ``status == "failed"``.
        """
        if self.status in ("drained", "failed"):
            return False
        self.status = "running"
        self.chunks_ingested += 1
        try:
            absorbed = next(self._gen)
        except StopIteration:
            # Exhaustion finishes the port, which may publish once more.
            if self._obs_freshness is not None:
                self._note_phase(False)
            self.status = "drained"
            return False
        except Exception as exc:
            self.status = "failed"
            raise IngestFailed(
                f"ingest pipeline crashed mid-stream: {exc!r}"
            ) from exc
        self.events_ingested += absorbed
        if self._obs_freshness is not None:
            self._note_phase(absorbed > 0)
        return True


def _wake(future: "asyncio.Future[None]") -> None:
    if not future.done():  # the waiter may have been cancelled meanwhile
        future.set_result(None)


async def _yield_behind_io() -> None:
    """Give the loop one turn and resume *after* the I/O it polls next.

    ``asyncio.sleep(0)`` re-queues the task as a ready handle, and
    ``BaseEventLoop._run_once`` runs the ready handles it already holds
    before the callbacks of the I/O its selector has just reported — so
    ingest would start its next phase before a request line that arrived
    during this one is even read.  A due timer joins the ready queue
    *behind* those I/O callbacks, so the connection handlers they wake
    are scheduled ahead of this task.
    """
    loop = asyncio.get_running_loop()
    future: "asyncio.Future[None]" = loop.create_future()
    loop.call_at(loop.time(), _wake, future)
    await future


class IngestSupervisor:
    """Drive a :class:`LiveIngest` in an asyncio task; restart on crash.

    ``chaos_hook`` (tests, CI chaos profiles) runs before every phase
    and may raise — exactly the restartable crash class.  The restart
    budget is ``max_restarts``; past it the supervisor gives up with
    :class:`~repro.errors.IngestFailed`.  ``before_phase`` is awaited
    between phases, after the loop has read the I/O that arrived during
    the previous one (the service's answered-queries barrier).
    """

    def __init__(
        self,
        ingest: LiveIngest,
        max_restarts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        metrics: Optional[Metrics] = None,
        chaos_hook: Optional[Callable[[], None]] = None,
        before_phase: Optional[Callable[[], Awaitable[None]]] = None,
    ) -> None:
        self.ingest = ingest
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.metrics = metrics
        self.chaos_hook = chaos_hook
        self.before_phase = before_phase
        self.restarts = 0
        #: ``idle`` → ``running`` → ``drained`` | ``stopped`` | ``failed``
        self.state = "idle"
        self._stop = asyncio.Event()

    def stop(self) -> None:
        """Ask the drive loop to wind down after the current phase."""
        self._stop.set()

    def next_backoff_s(self) -> float:
        """The bounded exponential delay before the next restart."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2**self.restarts))

    async def run(self) -> None:
        """The supervised drive loop (the service's background task)."""
        self.state = "running"
        while True:
            try:
                while not self._stop.is_set():
                    if self.chaos_hook is not None:
                        self.chaos_hook()
                    if not self.ingest.step_phase():
                        self.state = self.ingest.status  # drained or failed
                        return
                    # Queries before phases (module doc): read what arrived
                    # during the phase, then wait until it is answered.
                    await _yield_behind_io()
                    if self.before_phase is not None:
                        await self.before_phase()
                self.state = "stopped"
                return
            except asyncio.CancelledError:
                self.state = "stopped"
                raise
            except IngestFailed:
                # Fail-stop: the generator itself died (see module doc).
                self.state = "failed"
                raise
            except Exception:
                if self.restarts >= self.max_restarts:
                    self.state = "failed"
                    raise IngestFailed(
                        f"ingest task crashed past its restart budget "
                        f"({self.max_restarts})"
                    )
                delay = self.next_backoff_s()
                self.restarts += 1
                if self.metrics is not None:
                    self.metrics.counter("pq_service_ingest_restarts_total").inc()
                await asyncio.sleep(delay)
