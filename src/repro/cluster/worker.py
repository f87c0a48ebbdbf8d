"""The shard worker process: an executor behind a socket.

Each shard is a forked child process running :func:`shard_worker_main`.
The parent :class:`~repro.cluster.service.ClusterService` has already
coalesced, probed the cache and journal, and routed every job it sends,
so a shard only executes: ``job`` frames go straight to a
``ThreadPoolExecutor(worker_threads)``, and each job runs the shared
execute step of :func:`~repro.serve.service.execute_and_write_back` — a
shared-cache probe when the job starts (another shard or an earlier
incarnation may have written it meanwhile), then the backend, then the
cache write-back.  The process boundary buys what threads cannot: a
private GIL, so N shards run N simulations truly in parallel.

The worker's main thread is a plain receive loop on the length-prefixed
:class:`~repro.cluster.protocol.MessageChannel`:

* ``job``      → queue on the pool; the pool thread that runs the job
  sends its ``result`` (or ``error``) frame, so the main thread keeps
  answering pings while simulations run;
* ``ping``     → answer ``pong`` carrying a stats snapshot built from
  :class:`~repro.serve.service.ServiceStats` — the supervisor's liveness
  signal and the cluster's per-shard telemetry;
* ``shutdown`` → drain the pool (or cancel its queued jobs, whose waiters
  get :class:`~repro.serve.service.ServiceClosedError`), answer ``bye``,
  exit.

EOF on the channel means the parent died: the worker cancels queued jobs
and exits — an orphaned shard must not outlive its cluster.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..obs.trace import uninstall_tracer
from ..runtime.cache import ResultCache
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome
from ..serve.service import ServiceClosedError, ServiceStats, execute_and_write_back
from .protocol import (
    MSG_BYE,
    MSG_ERROR,
    MSG_JOB,
    MSG_PING,
    MSG_PONG,
    MSG_READY,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MessageChannel,
    ProtocolError,
)

__all__ = ["shard_worker_main"]


def _pickle_safe(error: BaseException) -> Optional[BaseException]:
    """Return ``error`` if it survives a pickle round-trip, else ``None``.

    The original exception object is forwarded to the parent when possible
    so coalesced waiters re-raise the real type; exceptions holding
    unpicklable state degrade to the textual ``error`` field.
    """
    import pickle

    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:  # noqa: BLE001 — any pickle failure means "no"
        return None


def shard_worker_main(
    channel: MessageChannel,
    parent_channel: Optional[MessageChannel],
    shard_index: int,
    cache_dir: Optional[str],
    worker_threads: int,
) -> None:
    """Entry point of one shard process (started via the fork context).

    ``channel`` is the child end of the socket pair; ``parent_channel`` is
    the parent's end, inherited by the fork and closed here first so the
    parent's death surfaces as EOF on ``channel``.
    """
    # A tracer installed in the parent was copied by the fork: its buffer
    # would grow unexported here, and its lock may have been held by a
    # parent thread at fork time.
    uninstall_tracer()
    if parent_channel is not None:
        # Inherited duplicate of the parent's end: plain fd close only — a
        # shutdown() here would sever the connection the parent still uses.
        parent_channel.close(shutdown=False)

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    stats = ServiceStats()
    lock = threading.Lock()  # guards stats and queued
    queued = 0
    pool = ThreadPoolExecutor(
        max_workers=worker_threads, thread_name_prefix=f"repro-shard-{shard_index}"
    )

    def send(message: dict) -> None:
        # A dead parent is terminal for the shard; the enclosing loop exits
        # on the next recv EOF, so a failed send is safe to swallow.
        try:
            channel.send(message)
        except (OSError, ValueError):
            pass

    def run(job: SimJob, key: str, received_at: float) -> SimOutcome:
        nonlocal queued
        with lock:
            queued -= 1
        outcome = cache.get(key) if cache is not None else None
        if outcome is not None:
            with lock:
                stats.cache_hits += 1
            return outcome
        outcome = execute_and_write_back(job, key, cache)
        with lock:
            stats.record_executed(outcome, time.monotonic() - received_at)
        return outcome

    def on_done(seq: int, key: str, future) -> None:
        # Runs on the pool thread that ran the job, or on the main thread
        # for a job cancelled by a non-draining shutdown.
        if future.cancelled():
            with lock:
                stats.cancelled += 1
            error = ServiceClosedError(
                f"shard {shard_index} closed before job {key[:12]} started"
            )
        else:
            error = future.exception()
            if error is not None:
                with lock:
                    stats.failed += 1
        if error is None:
            send(
                {
                    "kind": MSG_RESULT,
                    "seq": seq,
                    "key": key,
                    "shard": shard_index,
                    "outcome": future.result(),
                }
            )
        else:
            send(
                {
                    "kind": MSG_ERROR,
                    "seq": seq,
                    "key": key,
                    "shard": shard_index,
                    "error": f"{type(error).__name__}: {error}",
                    "exception": _pickle_safe(error),
                }
            )

    send({"kind": MSG_READY, "shard": shard_index, "pid": os.getpid()})

    drain = False  # an EOF exit cancels queued jobs
    acknowledge = False  # only a requested shutdown is answered with bye
    try:
        while True:
            try:
                message = channel.recv()
            except (EOFError, OSError, ProtocolError):
                break  # parent gone (or stream corrupt): exit without drain
            kind = message.get("kind")
            if kind == MSG_JOB:
                seq, key = message["seq"], message["key"]
                with lock:
                    stats.submitted += 1
                    queued += 1
                pool.submit(
                    run, message["job"], key, time.monotonic()
                ).add_done_callback(
                    lambda future, seq=seq, key=key: on_done(seq, key, future)
                )
            elif kind == MSG_PING:
                with lock:
                    snapshot = {"queue_depth": queued, **stats.snapshot()}
                send(
                    {
                        "kind": MSG_PONG,
                        "seq": message.get("seq", 0),
                        "shard": shard_index,
                        "snapshot": snapshot,
                    }
                )
            elif kind == MSG_SHUTDOWN:
                drain = bool(message.get("drain", True))
                acknowledge = True
                break
            # Unknown kinds are ignored: a newer parent may speak a richer
            # dialect, and dropping is safer than dying.
    finally:
        # Running jobs always finish; queued ones run too when draining.
        # on_done sends every job's frame before this returns, so ``bye``
        # is the final frame.
        pool.shutdown(wait=True, cancel_futures=not drain)
        if acknowledge:
            send({"kind": MSG_BYE, "shard": shard_index})
        channel.close()
