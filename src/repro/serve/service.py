"""The asyncio simulation service: coalescing, fair admission, workers.

:class:`SimulationService` is the long-lived front door the ROADMAP's
"serves heavy traffic" goal asks for.  One service instance owns:

* a **coalescing map** — identical in-flight requests (same
  :meth:`SimJob.job_hash`) share one future, so a duplicate burst performs
  exactly one backend simulation and every caller receives the *same*
  :class:`~repro.runtime.outcome.SimOutcome` object;
* a **fair bounded admission queue** (:class:`~repro.serve.queue.FairQueue`)
  — priority first, round-robin across clients within a priority, FIFO
  within a client; a full backlog raises the typed
  :class:`~repro.serve.queue.QueueFullError` (or, on the ``submit_wait``
  path, cooperatively waits for capacity);
* a **cache-aware worker pool** — submissions are probed against the
  :class:`~repro.runtime.cache.ResultCache` *before* they are scheduled, so
  cache hits never occupy a worker, and every fresh result is written back
  through the same cache;
* a **streaming event bus** (:mod:`repro.serve.events`) — submitted /
  coalesced / cache_hit / queued / started / progress / finished / failed /
  cancelled lifecycle events, with ``progress`` fed by the simulation
  engines' cooperative yield points (see ``docs/ENGINE.md``).

The service is single-loop: every public method must be called on the
event-loop thread (the sync :class:`~repro.serve.client.ServiceClient`
wraps that for threads, scripts and tests).  Backend simulations run on a
thread pool; pure-Python cycle simulation holds the GIL, so the win is
coalescing + caching + overlap with I/O rather than parallel speedup —
``docs/SERVE.md`` discusses when to use the service vs the bare
``Simulator``.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Sample,
)
from ..obs.trace import get_tracer
from ..runtime.backends import DEFAULT_PROGRESS_INTERVAL
from ..runtime.batch import execute_job_with_progress
from ..runtime.cache import ResultCache
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from .events import EventBus, EventSubscription, ServiceEvent
from .queue import FairQueue, QueueFullError

__all__ = [
    "CounterStats",
    "LatencyHistogram",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceStats",
    "JobTicket",
    "SimulationService",
    "execute_and_write_back",
]


class ServiceClosedError(RuntimeError):
    """Raised when submitting to (or waiting on) a closed service."""


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SimulationService`.

    Parameters
    ----------
    max_workers:
        Concurrent backend simulations (worker tasks and executor threads).
    max_backlog:
        Bound on *queued* (admitted, not yet started) jobs; exceeding it is
        explicit backpressure: :class:`QueueFullError`.
    max_backlog_per_client:
        Optional per-client share of the backlog (``None`` = no extra bound).
    progress_interval:
        Cycle cadence of streaming ``progress`` events, forwarded to the
        simulation engine's cooperative yield points.
    """

    max_workers: int = 2
    max_backlog: int = 64
    max_backlog_per_client: Optional[int] = None
    progress_interval: int = 250_000

    def __post_init__(self) -> None:
        if self.max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if self.progress_interval <= 0:
            raise ValueError("progress_interval must be positive")


#: Upper bucket bounds (seconds) of :class:`LatencyHistogram` — the
#: package-wide latency bounds of the obs layer (roughly logarithmic from
#: 1 ms to 30 s, which brackets every workload the repo's cycle engines
#: simulate).  The implicit final bucket is +inf.
LATENCY_BUCKETS: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS


class LatencyHistogram(Histogram):
    """Fixed-bucket latency histogram (Prometheus-style cumulative bounds).

    Since the telemetry layer landed this is the obs
    :class:`~repro.obs.metrics.Histogram` specialised to the package-wide
    latency bounds and the ``repro_latency_seconds`` exposition name — the
    historical API (``observe`` / ``mean`` / ``quantile`` / ``as_dict``)
    is unchanged, ``observe`` stays a counter bump cheap enough for the
    completion path, and the quantile edge cases (empty, single sample,
    q=0, overflow) are pinned down in ``tests/obs/test_metrics.py``.
    """

    def __init__(self, bounds: Tuple[float, ...] = LATENCY_BUCKETS) -> None:
        super().__init__(
            bounds,
            name="repro_latency_seconds",
            help="Admission-to-completion latency of executed jobs.",
        )


class CounterStats:
    """Named monotonic counters of one service instance.

    Each entry of :attr:`_COUNTERS` (attribute → exposition name and help)
    is backed by a :class:`~repro.obs.metrics.Counter` in a per-instance
    :class:`~repro.obs.metrics.MetricsRegistry` (per-instance so parallel
    services in one process never merge counts).  Attribute access keeps
    the historical dataclass feel: reads return plain ints, and the
    ``stats.executed += 1`` idiom still works — assignment routes the
    delta into the backing counter, which also enforces monotonicity (a
    decrease raises ``ValueError``).  Subclasses extend the table.
    """

    _COUNTERS: Dict[str, Tuple[str, str]] = {
        "submitted": ("repro_submitted_total", "Jobs submitted to the service."),
        "coalesced": (
            "repro_coalesced_total",
            "Submissions that rode an identical in-flight job.",
        ),
        "cache_hits": (
            "repro_cache_hits_total",
            "Submissions resolved from the result cache.",
        ),
        "executed": ("repro_executed_total", "Jobs actually simulated by a backend."),
        "failed": ("repro_failed_total", "Jobs whose backend raised."),
    }

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            attr: self.registry.counter(name, help)
            for attr, (name, help) in self._COUNTERS.items()
        }

    def __getattr__(self, name: str):
        counters = self.__dict__.get("_counters")
        if counters and name in counters:
            return counters[name].value
        raise AttributeError(
            f"{type(self).__name__!s} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            counters[name].inc(value - counters[name].value)
            return
        object.__setattr__(self, name, value)

    @property
    def coalescing_hit_rate(self) -> float:
        """Fraction of submissions served by riding an in-flight duplicate."""
        return self.coalesced / self.submitted if self.submitted else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.submitted if self.submitted else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Every counter of the table plus the two hit rates."""
        summary: Dict[str, object] = {
            attr: counter.value for attr, counter in self._counters.items()
        }
        summary["coalescing_hit_rate"] = self.coalescing_hit_rate
        summary["cache_hit_rate"] = self.cache_hit_rate
        return summary


class ServiceStats(CounterStats):
    """Counters, latency and macro totals of one executing service.

    Used by :class:`SimulationService` and by every cluster shard process
    (whose pong frames carry :meth:`snapshot`).
    """

    _COUNTERS = {
        **CounterStats._COUNTERS,
        "rejected": (
            "repro_rejected_total",
            "Submissions bounced by the admission queue.",
        ),
        "cancelled": (
            "repro_cancelled_total",
            "Queued jobs cancelled by a non-draining close.",
        ),
    }

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(registry)
        #: Jobs completed per worker slot — skew here means unfair pop
        #: order or one worker pinned on a long simulation.
        self.per_worker_executed: Dict[int, int] = {}
        #: Admission-to-completion latency of executed jobs.
        self.latency = LatencyHistogram()
        self.registry.register(self.latency)
        #: Macro-step engine totals accumulated from executed outcomes.
        self.macro: Dict[str, int] = {"jumps": 0, "cycles_skipped": 0}
        self.registry.add_callback(
            "repro_worker_executed_total", self._worker_families
        )

    def record_executed(
        self, outcome: SimOutcome, latency: float, worker: Optional[int] = None
    ) -> None:
        """Count one backend execution: latency, macro totals, worker slot."""
        self.executed += 1
        if worker is not None:
            self.per_worker_executed[worker] = (
                self.per_worker_executed.get(worker, 0) + 1
            )
        macro = outcome.metrics.get("macro_stats")
        if isinstance(macro, dict):
            self.macro["jumps"] += int(macro.get("jumps", 0))
            self.macro["cycles_skipped"] += int(macro.get("cycles_skipped", 0))
        self.latency.observe(latency)

    def _worker_families(self) -> List[MetricFamily]:
        per_worker = dict(self.per_worker_executed)
        if not per_worker:
            return []
        return [
            MetricFamily(
                "repro_worker_executed_total",
                "counter",
                "Jobs completed per worker slot.",
                tuple(
                    Sample(labels={"worker": worker}, value=count)
                    for worker, count in sorted(per_worker.items())
                ),
            )
        ]

    def snapshot(self) -> Dict[str, object]:
        """:meth:`as_dict` plus per-worker counts, latency and macro totals."""
        return {
            **self.as_dict(),
            "per_worker_executed": dict(self.per_worker_executed),
            "latency": self.latency.as_dict(),
            "macro": dict(self.macro),
        }


def execute_and_write_back(
    job: SimJob,
    key: str,
    cache: Optional[ResultCache],
    progress_callback: Optional[Callable[[int], None]] = None,
    progress_interval: int = DEFAULT_PROGRESS_INTERVAL,
) -> SimOutcome:
    """Run ``job`` on its backend, then write the outcome to ``cache``.

    The execute step of both :class:`SimulationService` workers and
    cluster shards, called on a worker thread so pickle/disk latency never
    blocks a loop (``ResultCache.put`` is atomic, so a concurrent probe
    sees either nothing or the complete entry).  A failing write-back is
    demoted to a warning: the simulation result exists and must reach its
    waiters.
    """
    outcome = execute_job_with_progress(
        job, progress_callback=progress_callback, progress_interval=progress_interval
    )
    if cache is not None:
        tracer = get_tracer()
        if tracer is not None:
            tracer.begin("write_back", key, cat="job")
        try:
            cache.put(key, outcome)
        except Exception as error:  # noqa: BLE001 — best-effort cache
            import warnings

            warnings.warn(
                f"result-cache write-back failed for {key[:12]}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
        finally:
            if tracer is not None:
                tracer.maybe_end("write_back", key, cat="job")
    return outcome


@dataclass
class JobTicket:
    """Receipt for one submission; ``await ticket.outcome()`` for the result."""

    job: SimJob
    job_hash: str
    client: str
    #: This submission attached to an identical in-flight job.
    coalesced: bool
    #: Resolved instantly from the result cache (never queued).
    cache_hit: bool
    future: "asyncio.Future[SimOutcome]"

    async def outcome(self) -> SimOutcome:
        return await self.future


@dataclass
class _Entry:
    """One unique in-flight job (the unit the queue and workers see)."""

    job: SimJob
    key: str
    client: str
    priority: int
    future: "asyncio.Future[SimOutcome]"
    waiters: int = 1
    started: bool = False
    #: Monotonic admission time; completion observes the latency.
    enqueued_at: float = 0.0


class SimulationService:
    """Async simulation front door: submit, coalesce, stream, drain.

    Use as an async context manager, or call :meth:`start` / :meth:`close`
    explicitly::

        async with SimulationService(cache=ResultCache(path)) as service:
            ticket = service.submit(job, client="alice")
            outcome = await ticket.outcome()
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.cache = cache
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        #: The per-service metrics registry backing :attr:`stats`; the
        #: depth/inflight gauges read the live structures on collection.
        self.metrics = self.stats.registry
        self.metrics.gauge(
            "repro_queue_depth",
            "Jobs admitted but not yet picked up by a worker.",
            fn=self.backlog,
        )
        self.metrics.gauge(
            "repro_inflight",
            "Unique jobs between admission and completion.",
            fn=self.inflight,
        )
        self.events = EventBus()
        self._queue: FairQueue[_Entry] = FairQueue(
            self.config.max_backlog,
            self.config.max_backlog_per_client,
            on_depth=self._on_queue_depth,
        )
        self._inflight: Dict[str, _Entry] = {}
        self._workers: List[asyncio.Task] = []
        self._work_available: Optional[asyncio.Semaphore] = None
        self._space_freed: Optional[asyncio.Condition] = None
        self._executor = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> "SimulationService":
        """Spawn the worker pool (idempotent)."""
        if self._started:
            return self
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._work_available = asyncio.Semaphore(0)
        self._space_freed = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="repro-serve"
        )
        self._workers = [
            asyncio.ensure_future(self._worker_loop(index))
            for index in range(self.config.max_workers)
        ]
        self._started = True
        return self

    async def __aenter__(self) -> "SimulationService":
        return await self.start()

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    async def close(self, drain: bool = True) -> None:
        """Shut down: refuse new work, settle in-flight work, stop workers.

        With ``drain=True`` (the default) every admitted job — queued or
        executing — runs to completion and resolves its waiters.  With
        ``drain=False`` queued-but-unstarted entries are *cancelled* (their
        waiters receive :class:`ServiceClosedError`) while entries already
        executing on a worker still finish and resolve normally.
        """
        if not self._started or self._closed:
            self._closed = True
            self.events.close()
            return
        self._closed = True
        # Wake any submit_wait callers parked on backpressure.
        async with self._space_freed:
            self._space_freed.notify_all()
        if not drain:
            for entry, client, _priority in self._queue.drain():
                self._inflight.pop(entry.key, None)
                self.stats.cancelled += 1
                self.events.publish(
                    "cancelled", entry.key, client, workload=entry.job.workload.name
                )
                if not entry.future.done():
                    entry.future.set_exception(
                        ServiceClosedError(
                            f"service closed before job {entry.key[:12]} started"
                        )
                    )
        # Wait for every remaining in-flight entry (queued ones too, when
        # draining) to settle — exceptions included.
        pending = [entry.future for entry in self._inflight.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.events.close()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(self, job: SimJob, client: str = "anon", priority: int = 0) -> JobTicket:
        """Submit one job; never blocks.

        Returns a :class:`JobTicket` whose future resolves to the outcome.
        Raises :class:`QueueFullError` when the backlog bound is hit (use
        :meth:`submit_wait` for cooperative backpressure instead) and
        :class:`ServiceClosedError` after :meth:`close`.

        Submissions made within one event-loop turn are atomic with respect
        to the workers, so a burst of identical jobs submitted back-to-back
        deterministically coalesces onto a single backend execution.
        """
        return self._submit(job, client, priority, record_rejection=True)

    def _submit(
        self, job: SimJob, client: str, priority: int, record_rejection: bool
    ) -> JobTicket:
        if self._closed:
            raise ServiceClosedError("service is closed")
        if not self._started:
            raise ServiceClosedError("service not started (use 'async with' or start())")
        key = job.job_hash()
        workload = job.workload.name

        # 1. Coalesce onto an identical in-flight job.
        entry = self._inflight.get(key)
        if entry is not None:
            entry.waiters += 1
            self.stats.submitted += 1
            self.stats.coalesced += 1
            self.events.publish("submitted", key, client, workload=workload)
            self.events.publish("coalesced", key, client, workload=workload)
            return JobTicket(job, key, client, True, False, entry.future)

        # 2. Probe the result cache before scheduling anything.  The probe
        # runs synchronously on the loop thread on purpose: submit() must
        # stay await-free so one-turn bursts coalesce atomically, and a
        # hit must resolve its ticket before the caller regains control.
        # Entries are small pickles; the expensive side (the post-execution
        # write-back) happens on the worker thread instead.
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self.stats.submitted += 1
                self.stats.cache_hits += 1
                future: "asyncio.Future[SimOutcome]" = self._loop.create_future()
                future.set_result(hit)
                self.events.publish("submitted", key, client, workload=workload)
                self.events.publish("cache_hit", key, client, workload=workload)
                self.events.publish(
                    "finished", key, client, workload=workload, waiters=1
                )
                return JobTicket(job, key, client, False, True, future)

        # 3. Admit to the bounded queue (explicit backpressure on overflow).
        entry = _Entry(
            job=job,
            key=key,
            client=client,
            priority=priority,
            future=self._loop.create_future(),
            enqueued_at=time.monotonic(),
        )
        # Failures are also reported via events; retrieving the exception
        # here keeps abandoned tickets from warning at garbage collection.
        entry.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        try:
            self._queue.push(entry, client, priority)
        except QueueFullError:
            # Fail-fast submissions record the bounce; the waiting path
            # (submit_wait) retries instead — that is backpressure, not a
            # rejection, and it must not double-count the submission.
            if record_rejection:
                self.stats.submitted += 1
                self.stats.rejected += 1
                self.events.publish("submitted", key, client, workload=workload)
                self.events.publish("rejected", key, client, workload=workload)
            raise
        self._inflight[key] = entry
        self.stats.submitted += 1
        self.events.publish("submitted", key, client, workload=workload)
        self.events.publish("queued", key, client, workload=workload)
        self._work_available.release()
        return JobTicket(job, key, client, False, False, entry.future)

    def _has_capacity(self, client: str) -> bool:
        if len(self._queue) >= self.config.max_backlog:
            return False
        limit = self.config.max_backlog_per_client
        return limit is None or self._queue.client_backlog(client) < limit

    async def submit_wait(
        self, job: SimJob, client: str = "anon", priority: int = 0
    ) -> JobTicket:
        """Like :meth:`submit`, but waits for backlog capacity instead of
        raising :class:`QueueFullError` (coalesced and cached submissions
        never wait)."""
        while True:
            try:
                return self._submit(job, client, priority, record_rejection=False)
            except QueueFullError:
                async with self._space_freed:
                    while not self._has_capacity(client) and not self._closed:
                        await self._space_freed.wait()
                if self._closed:
                    raise ServiceClosedError("service closed while waiting for capacity")

    async def run(
        self,
        jobs: Sequence[SimJob],
        client: str = "anon",
        priority: int = 0,
    ) -> List[SimOutcome]:
        """Submit a batch and await every outcome, in submission order.

        Duplicates *within the batch* always coalesce (each unique job is
        submitted before any other coroutine can run), and unique jobs use
        the waiting submission path, so arbitrarily large batches flow
        through the bounded backlog without rejection.
        """
        tickets: List[JobTicket] = []
        for job in jobs:
            tickets.append(await self.submit_wait(job, client=client, priority=priority))
        return [await ticket.outcome() for ticket in tickets]

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def subscribe(self) -> EventSubscription:
        """Async-iterable stream of every subsequent service event."""
        return self.events.subscribe()

    def add_listener(self, listener) -> None:
        """Register a sync callback invoked (on the loop thread) per event."""
        self.events.add_listener(listener)

    def backlog(self) -> int:
        """Jobs admitted but not yet picked up by a worker."""
        return len(self._queue)

    def _on_queue_depth(self, depth: int) -> None:
        """Queue depth change → tracer counter track (when tracing)."""
        tracer = get_tracer()
        if tracer is not None:
            tracer.counter("queue_depth", {"jobs": depth})

    def inflight(self) -> int:
        """Unique jobs somewhere between admission and completion."""
        return len(self._inflight)

    def snapshot(self) -> Dict[str, object]:
        """Structured ops snapshot: depth, rates, skew, latency.

        Everything an operator (or the cluster supervisor's pong frames)
        wants in one picklable dict: current queue depth and in-flight
        count, the coalescing / cache hit rates, per-worker executed
        counts, and the admission-to-completion latency histogram.
        """
        return {
            "queue_depth": self.backlog(),
            "inflight": self.inflight(),
            **self.stats.snapshot(),
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    def describe(self) -> Dict[str, object]:
        return {
            "config": {
                "max_workers": self.config.max_workers,
                "max_backlog": self.config.max_backlog,
                "max_backlog_per_client": self.config.max_backlog_per_client,
                "progress_interval": self.config.progress_interval,
            },
            "cache": self.cache.stats() if self.cache is not None else None,
            "backlog": self.backlog(),
            "inflight": self.inflight(),
            "stats": self.stats.as_dict(),
        }

    # ------------------------------------------------------------------
    # Workers.
    # ------------------------------------------------------------------
    async def _worker_loop(self, index: int) -> None:
        assert self._work_available is not None
        while True:
            await self._work_available.acquire()
            popped = self._queue.pop()
            async with self._space_freed:
                self._space_freed.notify_all()
            if popped is None:
                continue  # entry was drained by a non-draining close
            entry, _client, _priority = popped
            entry.started = True
            await self._execute_entry(entry, index)

    async def _execute_entry(self, entry: _Entry, worker_index: int = 0) -> None:
        self.events.publish(
            "started", entry.key, entry.client, workload=entry.job.workload.name
        )
        progress = functools.partial(self._post_progress, entry)
        try:
            outcome = await self._loop.run_in_executor(
                self._executor,
                functools.partial(
                    execute_and_write_back,
                    entry.job,
                    entry.key,
                    self.cache,
                    progress,
                    self.config.progress_interval,
                ),
            )
        except Exception as error:  # noqa: BLE001 — surfaced to every waiter
            self.stats.failed += 1
            self._inflight.pop(entry.key, None)
            self.events.publish(
                "failed",
                entry.key,
                entry.client,
                workload=entry.job.workload.name,
                waiters=entry.waiters,
                error=f"{type(error).__name__}: {error}",
            )
            if not entry.future.done():
                entry.future.set_exception(error)
            return
        self.stats.record_executed(
            outcome, time.monotonic() - entry.enqueued_at, worker_index
        )
        self._inflight.pop(entry.key, None)
        self.events.publish(
            "finished",
            entry.key,
            entry.client,
            workload=entry.job.workload.name,
            waiters=entry.waiters,
        )
        if not entry.future.done():
            entry.future.set_result(outcome)

    def _post_progress(self, entry: _Entry, cycles: int) -> None:
        """Engine yield point → event bus; called from an executor thread."""
        self._loop.call_soon_threadsafe(self._emit_progress, entry, cycles)

    def _emit_progress(self, entry: _Entry, cycles: int) -> None:
        if not entry.future.done():
            self.events.publish(
                "progress",
                entry.key,
                entry.client,
                workload=entry.job.workload.name,
                cycles=cycles,
            )
