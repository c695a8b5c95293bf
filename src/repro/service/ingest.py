"""Live ingest: chunked pipeline driving plus a restarting supervisor.

:class:`LiveIngest` wraps an ingest pipeline's ``steps()`` generator
(:meth:`repro.engine.ingest.IngestPipeline.steps`) and pulls it in
bounded chunks, so an asyncio task can interleave
ingest with query serving without ever blocking the loop for the whole
log.  :class:`IngestSupervisor` owns the drive loop and the restart
contract:

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
from typing import Callable, Iterator, Optional

from repro.errors import IngestFailed
from repro.obs.metrics import Metrics


class LiveIngest:
    """Chunked pull over a pipeline ``steps()`` generator."""

    def __init__(self, pipeline: object, chunk_events: int = 8192) -> None:
        if chunk_events < 1:
            raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
        self.pipeline = pipeline
        self.chunk_events = chunk_events
        self._gen: Iterator[int] = pipeline.steps()  # type: ignore[attr-defined]
        #: ``idle`` → ``running`` → ``drained`` | ``failed``
        self.status = "idle"
        self.events_ingested = 0
        self.chunks_ingested = 0

    def step_chunk(self) -> bool:
        """Absorb roughly one chunk of events; False when the log is done.

        A generator-internal crash poisons this ingest permanently
        (fail-stop): the exception is wrapped in
        :class:`~repro.errors.IngestFailed` and every later call returns
        False with ``status == "failed"``.
        """
        if self.status in ("drained", "failed"):
            return False
        self.status = "running"
        absorbed = 0
        try:
            while absorbed < self.chunk_events:
                absorbed += next(self._gen)
        except StopIteration:
            self.status = "drained"
            return False
        except Exception as exc:
            self.status = "failed"
            raise IngestFailed(
                f"ingest pipeline crashed mid-stream: {exc!r}"
            ) from exc
        finally:
            if absorbed:
                self.events_ingested += absorbed
                self.chunks_ingested += 1
        return True


class IngestSupervisor:
    """Drive a :class:`LiveIngest` in an asyncio task; restart on crash.

    ``chaos_hook`` (tests, CI chaos profiles) runs before every chunk
    and may raise — exactly the restartable crash class.  The restart
    budget is ``max_restarts``; past it the supervisor gives up with
    :class:`~repro.errors.IngestFailed`.
    """

    def __init__(
        self,
        ingest: LiveIngest,
        max_restarts: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        metrics: Optional[Metrics] = None,
        chaos_hook: Optional[Callable[[], None]] = None,
    ) -> None:
        self.ingest = ingest
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.metrics = metrics
        self.chaos_hook = chaos_hook
        self.restarts = 0
        #: ``idle`` → ``running`` → ``drained`` | ``stopped`` | ``failed``
        self.state = "idle"
        self._stop = asyncio.Event()

    def stop(self) -> None:
        """Ask the drive loop to wind down after the current chunk."""
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
                    if not self.ingest.step_chunk():
                        self.state = self.ingest.status  # drained or failed
                        return
                    # Yield to the event loop between chunks so query
                    # handlers run interleaved with ingest.
                    await asyncio.sleep(0)
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
