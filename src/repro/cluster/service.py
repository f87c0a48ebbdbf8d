"""The sharded simulation cluster: routing, coalescing, durability.

:class:`ClusterService` is the multi-process sibling of the single-process
:class:`~repro.serve.service.SimulationService`.  It keeps the same outward
contract — submit a :class:`~repro.runtime.job.SimJob`, get a ticket whose
future resolves to one :class:`~repro.runtime.outcome.SimOutcome`; identical
in-flight submissions coalesce; caches are probed before any work is
scheduled — but executes on worker *processes*, so N shards run N
simulations with N private GILs and throughput finally scales with cores.

How one submission flows:

1. **Coalesce** — the job hash is looked up in the cluster-wide in-flight
   map; a duplicate rides the existing future.
2. **Probe** — journal-replayed completions, then the shared on-disk
   :class:`~repro.runtime.cache.ResultCache`; a hit resolves instantly.
3. **Journal** — with a :class:`~repro.cluster.journal.JobJournal`
   configured, the accepted job is recorded *before* dispatch, so a crash
   between acceptance and completion resubmits it on restart.
4. **Route** — :class:`~repro.cluster.router.ShardRouter` hash-partitions
   by job hash, so identical jobs always share a shard.
5. **Dispatch** — the job travels to the shard worker over the
   length-prefixed :mod:`~repro.cluster.protocol` channel; the worker
   (:mod:`~repro.cluster.worker`) is a plain executor — thread pool,
   start-time cache probe, backend, cache write-back — and sends the
   outcome (or the original exception) back.
6. **Settle** — the future resolves, the completion is journaled, and every
   coalesced waiter observes the same outcome object.

Failures are the :class:`~repro.cluster.supervisor.Supervisor`'s job: a
crashed or hung shard is killed and restarted with capped exponential
backoff, and its in-flight jobs are redispatched onto the replacement —
waiters keep their original future and never observe the crash.  A shard
that crash-loops without doing work fails its jobs with
:class:`~repro.cluster.supervisor.ShardFailedError` instead of hanging.

``ClusterService`` quacks like :class:`~repro.serve.client.ServiceClient`
(``submit`` / ``run`` / ``stats`` / ``snapshot`` / ``close``), so
``Simulator(service=...)``, ``BatchRunner(service=...)`` and
``ExplorationEngine(service=...)`` work unchanged on top of it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..obs.trace import get_tracer
from ..runtime.cache import ResultCache
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from ..serve.service import CounterStats, ServiceClosedError
from .journal import JobJournal
from .protocol import MSG_ERROR, MSG_RESULT
from .router import ShardRouter
from .supervisor import ShardFailedError, ShardHandle, Supervisor, SupervisorConfig

__all__ = [
    "ClusterConfig",
    "ClusterService",
    "ClusterStats",
    "ClusterTicket",
]


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one :class:`ClusterService`.

    Parameters
    ----------
    shards:
        Worker processes; throughput scales with this up to the core count.
    worker_threads:
        Executor threads inside each shard process.  ``1`` is right for
        CPU-bound simulation (the shard process is the unit of
        parallelism); raise it only for I/O-heavy custom backends.  Jobs
        beyond the free threads wait in the shard's unbounded pool queue:
        the parent has already accepted them, so a shard never rejects.
    heartbeat_interval / heartbeat_timeout / backoff_base / backoff_cap /
    max_restarts / ready_timeout:
        Supervision knobs, see
        :class:`~repro.cluster.supervisor.SupervisorConfig`.
    shutdown_timeout:
        Seconds :meth:`ClusterService.close` waits for draining shards
        before failing leftover futures.
    """

    shards: int = 2
    worker_threads: int = 1
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 15.0
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    max_restarts: int = 5
    ready_timeout: float = 30.0
    shutdown_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.worker_threads <= 0:
            raise ValueError("worker_threads must be positive")
        if self.shutdown_timeout <= 0:
            raise ValueError("shutdown_timeout must be positive")

    def supervisor_config(self) -> SupervisorConfig:
        return SupervisorConfig(
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            max_restarts=self.max_restarts,
            ready_timeout=self.ready_timeout,
        )


class ClusterStats(CounterStats):
    """Monotonic counters of one cluster instance.

    The shared service counter table (see
    :class:`~repro.serve.service.CounterStats`) extended with the
    cluster's own counters.
    """

    _COUNTERS = {
        **CounterStats._COUNTERS,
        # Served from the journal's replayed completions (cache-less mode).
        "journal_hits": (
            "repro_journal_hits_total",
            "Submissions served from journal-replayed completions.",
        ),
        # Jobs a shard resolved from the shared cache (raced writers etc.).
        "shard_cache_hits": (
            "repro_shard_cache_hits_total",
            "Jobs a shard resolved from the shared cache.",
        ),
        # In-flight jobs redispatched after a shard crash.
        "requeued": (
            "repro_requeued_total",
            "In-flight jobs redispatched after a shard crash.",
        ),
        # Unfinished journal entries resubmitted at startup.
        "recovered": (
            "repro_journal_recovered_total",
            "Unfinished journal entries replayed at startup.",
        ),
    }

    @property
    def cache_hit_rate(self) -> float:
        hits = self.cache_hits + self.journal_hits
        return hits / self.submitted if self.submitted else 0.0


@dataclass
class ClusterTicket:
    """Receipt for one submission; :meth:`result` blocks for the outcome."""

    job: SimJob
    job_hash: str
    client: str
    #: This submission attached to an identical in-flight job.
    coalesced: bool
    #: Resolved instantly from the cache or the journal (never dispatched).
    cache_hit: bool
    #: Which shard owns the job (``-1`` for instant resolutions).
    shard: int
    _future: "Future[SimOutcome]"

    def result(self, timeout: Optional[float] = None) -> SimOutcome:
        """Block until the outcome is available (re-raises shard errors)."""
        return self._future.result(timeout)

    def done(self) -> bool:
        return self._future.done()

    def add_done_callback(self, callback) -> None:
        """Invoke ``callback(ticket)`` when the outcome settles.

        Runs on the completing thread (or immediately when already done) —
        :class:`~repro.serve.client.ClientTicket` API parity, used by the
        replay harness to timestamp completions.
        """
        self._future.add_done_callback(lambda _future: callback(self))


@dataclass
class _ClusterEntry:
    """One unique in-flight job owned by the cluster."""

    job: SimJob
    key: str
    seq: int
    shard: int
    client: str
    future: "Future[SimOutcome]"
    waiters: int = 1


class ClusterService:
    """Multi-process sharded simulation service with supervision.

    Usable as a context manager::

        with ClusterService(cache_dir=path, config=ClusterConfig(shards=4)) as cluster:
            outcomes = cluster.run(jobs)

    Parameters
    ----------
    cache:
        A ready-made :class:`ResultCache`, or ``None``.
    cache_dir:
        Convenience alternative to ``cache``; all shards share this
        directory (their writes are atomic, see ``ResultCache.put``).
    config:
        Shard count and supervision tunables.
    journal:
        Path (or :class:`JobJournal`) enabling the durable backlog.  When
        the file already holds a previous run, the cluster resumes it:
        completed outcomes are served without re-execution and unfinished
        jobs are resubmitted in the background (``wait_idle`` to observe).
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        config: Optional[ClusterConfig] = None,
        journal: Optional[Union[str, Path, JobJournal]] = None,
    ) -> None:
        if cache is None and cache_dir is not None:
            cache = ResultCache(Path(cache_dir).expanduser())
        self.cache = cache
        self.config = config or ClusterConfig()
        self.stats = ClusterStats()
        #: The per-cluster metrics registry backing :attr:`stats`.
        self.metrics = self.stats.registry
        self.metrics.gauge(
            "repro_inflight",
            "Unique jobs between acceptance and settlement.",
            fn=self.inflight,
        )
        self.router = ShardRouter(self.config.shards)
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(Path(journal).expanduser())
        self.journal: Optional[JobJournal] = journal

        self._lock = threading.RLock()
        self._inflight: Dict[str, _ClusterEntry] = {}
        self._pending: Dict[int, _ClusterEntry] = {}  # seq -> entry
        self._completed_from_journal: Dict[str, SimOutcome] = {}
        self._handles: List[ShardHandle] = []
        self._dead_shards: Dict[int, str] = {}
        self._seq = 0
        self._closed = False

        self._supervisor = Supervisor(
            self.config.supervisor_config(),
            get_handle=self._get_handle,
            replace_handle=self._replace_handle,
            on_shard_lost=self._redispatch_shard,
            on_shard_failed=self._fail_shard,
        )
        self._start()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def _start(self) -> None:
        # The journal is read (and repaired) before any shard forks, so a
        # damaged journal fails the constructor with nothing left running.
        unfinished = self._resume_journal() if self.journal is not None else {}
        try:
            for index in range(self.config.shards):
                handle = self._make_handle(index)
                handle.start(self.config.ready_timeout)
                self._handles.append(handle)
        except BaseException:
            for handle in self._handles:
                handle.kill()
            raise
        self._supervisor.start(self.config.shards)
        for job in unfinished.values():
            # Already journaled (the compacted file retains them): skip the
            # duplicate submission record, keep everything else identical.
            self._submit(job, client="recovery", journal_submission=False)
        self.stats.recovered += len(unfinished)

    def _make_handle(self, index: int) -> ShardHandle:
        return ShardHandle(
            index,
            cache_dir=str(self.cache.root) if self.cache is not None else None,
            worker_threads=self.config.worker_threads,
            on_message=self._on_message,
            on_disconnect=self._supervisor.notify_disconnect,
        )

    def _get_handle(self, index: int) -> ShardHandle:
        with self._lock:
            return self._handles[index]

    def _replace_handle(self, index: int) -> ShardHandle:
        handle = self._make_handle(index)
        handle.start(self.config.ready_timeout)
        with self._lock:
            self._handles[index] = handle
        return handle

    def _resume_journal(self) -> Dict[str, SimJob]:
        """Load the journal's completions; return its unfinished jobs."""
        assert self.journal is not None
        if not self.journal.exists():
            self.journal.start()
            return {}
        contents = self.journal.resume()
        self._completed_from_journal = {
            key: outcome
            for key, outcome in contents.completed.items()
            if outcome is not None
        }
        return contents.unfinished()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True) -> None:
        """Shut the cluster down.

        ``drain=True`` (default): every dispatched job runs to completion
        on its shard and resolves its waiters before the processes exit.
        ``drain=False``: jobs still queued inside a shard's thread pool are
        cancelled (waiters get :class:`ServiceClosedError`); jobs already
        executing finish and resolve normally.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._supervisor.stop()
        for handle in self._handles:
            handle.request_shutdown(drain)
        deadline = time.monotonic() + self.config.shutdown_timeout
        if drain:
            with self._lock:
                futures = [entry.future for entry in self._pending.values()]
            for future in futures:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    future.exception(timeout=remaining)
                except Exception:  # noqa: BLE001 — includes TimeoutError
                    pass
        for handle in self._handles:
            handle.join(max(0.5, deadline - time.monotonic()))
            if handle.channel is not None:
                handle.channel.close()
        self._fail_leftovers("cluster closed")

    def terminate(self) -> None:
        """Crash-stop: kill every shard, fail every waiter, journal nothing.

        The programmatic equivalent of the daemon dying — used by the
        crash-recovery tests and as the last-resort operator action.  The
        journal keeps its unfinished submissions, so a new
        :class:`ClusterService` on the same journal resumes the backlog.
        """
        with self._lock:
            self._closed = True
        self._supervisor.stop()
        for handle in self._handles:
            handle.closing = True
            handle.kill()
        self._fail_leftovers("cluster terminated")

    def _fail_leftovers(self, reason: str) -> None:
        with self._lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
            self._inflight.clear()
        for entry in leftovers:
            if not entry.future.done():
                entry.future.set_exception(
                    ServiceClosedError(f"{reason} before job {entry.key[:12]} settled")
                )

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(
        self, job: SimJob, client_name: str = "anon", priority: int = 0
    ) -> ClusterTicket:
        """Submit one job; never blocks on simulation.

        ``priority`` is accepted for :class:`ServiceClient` API parity and
        currently ignored — shard dispatch is FIFO per shard.
        """
        del priority
        return self._submit(job, client=client_name, journal_submission=True)

    def _submit(
        self, job: SimJob, client: str, journal_submission: bool
    ) -> ClusterTicket:
        key = job.job_hash()
        with self._lock:
            if self._closed:
                raise ServiceClosedError("cluster is closed")

            tracer = get_tracer()
            entry = self._inflight.get(key)
            if entry is not None:
                entry.waiters += 1
                self.stats.submitted += 1
                self.stats.coalesced += 1
                if tracer is not None:
                    tracer.instant("coalesced", key, client=client)
                return ClusterTicket(job, key, client, True, False, entry.shard, entry.future)

            replayed = self._completed_from_journal.get(key)
            if replayed is not None:
                self.stats.submitted += 1
                self.stats.journal_hits += 1
                future: "Future[SimOutcome]" = Future()
                replayed.cache_hit = True
                future.set_result(replayed)
                if tracer is not None:
                    tracer.begin("job", key, client=client)
                    tracer.instant("journal_hit", key)
                    tracer.end("job", key, outcome="journal_hit")
                return ClusterTicket(job, key, client, False, True, -1, future)

            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    self.stats.submitted += 1
                    self.stats.cache_hits += 1
                    future = Future()
                    future.set_result(hit)
                    if tracer is not None:
                        tracer.begin("job", key, client=client)
                        tracer.instant("cache_hit", key)
                        tracer.end("job", key, outcome="cache_hit")
                    return ClusterTicket(job, key, client, False, True, -1, future)

            shard = self.router.shard_for(key)
            dead_reason = self._dead_shards.get(shard)
            if dead_reason is not None:
                raise ShardFailedError(dead_reason)

            self._seq += 1
            entry = _ClusterEntry(
                job=job,
                key=key,
                seq=self._seq,
                shard=shard,
                client=client,
                future=Future(),
            )
            if self.journal is not None and journal_submission:
                self.journal.record_submission(key, job)
            self._inflight[key] = entry
            self._pending[entry.seq] = entry
            self.stats.submitted += 1
            handle = self._handles[shard]
        # The send happens outside the lock (socket I/O); a failed send is
        # recovered by the supervisor's redispatch when the shard restarts.
        tracer = get_tracer()
        if tracer is not None:
            tracer.begin("job", key, client=client, workload=job.workload.name)
            tracer.instant("shard_routed", key, shard=shard)
            tracer.begin("dispatched", key, shard=shard)
        handle.dispatch(entry.seq, key, job)
        return ClusterTicket(job, key, client, False, False, shard, entry.future)

    def run(
        self,
        jobs: Sequence[SimJob],
        client_name: str = "anon",
        priority: int = 0,
    ) -> List[SimOutcome]:
        """Submit a batch and block for every outcome, in submission order.

        Duplicates within the batch coalesce; this is the entry point
        ``BatchRunner(service=...)`` / ``Simulator(service=...)`` use.
        """
        tickets = [
            self.submit(job, client_name=client_name, priority=priority)
            for job in jobs
        ]
        return [ticket.result() for ticket in tickets]

    # ------------------------------------------------------------------
    # Shard callbacks (reader threads + supervisor thread).
    # ------------------------------------------------------------------
    def _on_message(self, handle: ShardHandle, message: dict) -> None:
        kind = message.get("kind")
        if kind == MSG_RESULT:
            self._settle(message["seq"], outcome=message["outcome"])
        elif kind == MSG_ERROR:
            error = message.get("exception")
            if not isinstance(error, BaseException):
                error = RuntimeError(message.get("error", "shard error"))
            self._settle(message["seq"], error=error)
        # ready/pong/bye are handled by the handle and supervisor.

    def _settle(
        self,
        seq: int,
        outcome: Optional[SimOutcome] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            entry = self._pending.pop(seq, None)
            if entry is None:
                return  # stale frame from a killed incarnation
            self._inflight.pop(entry.key, None)
            if outcome is not None:
                if outcome.cache_hit:
                    self.stats.shard_cache_hits += 1
                else:
                    self.stats.executed += 1
                if self.journal is not None:
                    # The outcome only rides into the journal when no shared
                    # cache keeps it durable.
                    self.journal.record_completion(
                        entry.key, outcome if self.cache is None else None
                    )
                    if self.cache is None:
                        self._completed_from_journal[entry.key] = outcome
            else:
                self.stats.failed += 1
        tracer = get_tracer()
        if tracer is not None:
            tracer.maybe_end("dispatched", entry.key)
            tracer.end(
                "job",
                entry.key,
                outcome="finished" if outcome is not None else "failed",
                waiters=entry.waiters,
            )
        if outcome is not None:
            if not entry.future.done():
                entry.future.set_result(outcome)
        else:
            assert error is not None
            if not entry.future.done():
                entry.future.set_exception(error)

    def _redispatch_shard(self, index: int) -> None:
        """Requeue a dead incarnation's in-flight jobs onto its successor."""
        with self._lock:
            entries = [e for e in self._pending.values() if e.shard == index]
            handle = self._handles[index]
            self.stats.requeued += len(entries)
        tracer = get_tracer()
        for entry in sorted(entries, key=lambda e: e.seq):
            if tracer is not None:
                tracer.instant("requeued", entry.key, shard=index)
            handle.dispatch(entry.seq, entry.key, entry.job)

    def _fail_shard(self, index: int, reason: str) -> None:
        """Restart budget exhausted: fail the shard's waiters for good."""
        with self._lock:
            self._dead_shards[index] = reason
            entries = [e for e in self._pending.values() if e.shard == index]
            for entry in entries:
                self._pending.pop(entry.seq, None)
                self._inflight.pop(entry.key, None)
                self.stats.failed += 1
        for entry in entries:
            if not entry.future.done():
                entry.future.set_exception(ShardFailedError(reason))

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def inflight(self) -> int:
        """Unique jobs somewhere between acceptance and settlement."""
        with self._lock:
            return len(self._inflight)

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until nothing is in flight; ``False`` on timeout.

        Primarily for observing journal recovery: the resubmitted backlog
        has no caller-held tickets, so idleness is the completion signal.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.inflight() == 0:
                return True
            time.sleep(0.02)
        return self.inflight() == 0

    @property
    def restarts(self) -> int:
        """Shard restarts performed by the supervisor so far."""
        return self._supervisor.restarts

    def stats_dict(self) -> Dict[str, object]:
        summary = self.stats.as_dict()
        summary["restarts"] = self.restarts
        return summary

    def snapshot(self, wait: float = 0.5) -> Dict[str, object]:
        """Cluster-wide ops snapshot, aggregated over per-shard stats.

        Pings every live shard and waits up to ``wait`` seconds for fresh
        pongs, then merges: total queue depth, per-shard executed counts
        and the cluster's own counters.  Stale snapshots (a shard mid-
        restart) are used as-is rather than blocking the caller.
        """
        asked_at = time.monotonic()
        with self._lock:
            handles = list(self._handles)
        for position, handle in enumerate(handles):
            handle.ping(-(position + 1))
        deadline = asked_at + wait
        while time.monotonic() < deadline:
            if all(
                handle.last_snapshot is not None and handle.last_seen >= asked_at
                for handle in handles
                if handle.alive()
            ):
                break
            time.sleep(0.01)
        shards = []
        queue_depth = 0
        for handle in handles:
            snapshot = handle.last_snapshot
            if snapshot is not None:
                queue_depth += int(snapshot.get("queue_depth", 0))
            shards.append(
                {
                    "shard": handle.index,
                    "alive": handle.alive(),
                    "pid": handle.process.pid if handle.process else None,
                    "snapshot": snapshot,
                }
            )
        return {
            "shards": shards,
            "shard_count": len(handles),
            "queue_depth": queue_depth,
            "inflight": self.inflight(),
            "stats": self.stats_dict(),
            "journal": str(self.journal.path) if self.journal else None,
            "cache": self.cache.stats() if self.cache is not None else None,
        }

    def describe(self) -> Dict[str, object]:
        return {
            "config": {
                "shards": self.config.shards,
                "worker_threads": self.config.worker_threads,
            },
            "cache": self.cache.stats() if self.cache is not None else None,
            "journal": str(self.journal.path) if self.journal else None,
            "inflight": self.inflight(),
            "stats": self.stats_dict(),
        }
