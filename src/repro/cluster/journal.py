"""Durable job journal: the cluster's crash-safe backlog.

The journal makes the sharded service's queue *durable*: every accepted
job is recorded before it is dispatched, every completion is recorded when
its outcome settles, and a restarted daemon replays the difference — jobs
submitted but never completed are resubmitted, jobs already completed are
served from the journal (or the shared result cache) without touching a
worker.

The file is a :class:`~repro.runtime.appendlog.AppendLog`, the format the
exploration run journal uses too: a header line, then one fsynced JSON
record per append, so a crash mid-append at worst truncates the final
line.  :meth:`JobJournal.resume` drops that partial line and atomically
rewrites the file without it, so a crash during the repair itself can
never lose a record either.

Record types after the header line:

* ``{"type": "submitted", "key": <job hash>, "job": <base64 pickle>,
  "workload": ..., "backend": ...}`` — the pickled job rides along so a
  restart can rebuild and resubmit it without the original caller;
* ``{"type": "completed", "key": <job hash>}`` — plus an ``"outcome"``
  base64 pickle when the cluster runs cache-less (with a shared result
  cache the outcome is already durable there, and the journal stays slim).

Resume compacts: completed work whose outcome is durable elsewhere is
dropped from the rewritten journal, so the file tracks the live backlog
instead of growing monotonically across restarts.  A journal written by a
different package version drops its pickled payloads (they may not
unpickle) and resubmits everything unfinished — safe, at worst wasteful.
"""

from __future__ import annotations

import base64
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .. import __version__
from ..runtime.appendlog import AppendLog
from ..runtime.job import SimJob
from ..runtime.outcome import SimOutcome

__all__ = [
    "JOB_JOURNAL_FORMAT",
    "JobJournal",
    "JobJournalContents",
]

#: Journal format version; bump on incompatible record changes.
JOB_JOURNAL_FORMAT = 1

#: Record type -> (payload field, payload class).
_PAYLOADS = {"submitted": ("job", SimJob), "completed": ("outcome", SimOutcome)}


def _pickle(obj: object) -> str:
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _unpickle(text: object, cls: type) -> Optional[object]:
    """The pickled ``cls`` instance in ``text``, or ``None`` if stale."""
    try:
        decoded = pickle.loads(base64.b64decode(str(text).encode("ascii")))
    except Exception:  # noqa: BLE001 — stale pickle
        return None
    return decoded if isinstance(decoded, cls) else None


def _submitted(key: str, job: SimJob) -> Dict[str, object]:
    return {
        "type": "submitted",
        "key": key,
        "workload": job.workload.name,
        "backend": job.backend,
        "job": _pickle(job),
    }


def _completed(key: str, outcome: Optional[SimOutcome]) -> Dict[str, object]:
    record: Dict[str, object] = {"type": "completed", "key": key}
    if outcome is not None:
        record["outcome"] = _pickle(outcome)
    return record


def _decode(
    record: Dict[str, object], header: Dict[str, object]
) -> Tuple[str, str, Optional[object]]:
    """``(type, key, payload)``; the payload is ``None`` when absent, stale
    or written by another package version."""
    kind = record.get("type")
    if kind not in _PAYLOADS:
        raise ValueError(f"unknown record type {kind!r}")
    key = str(record["key"])
    name, cls = _PAYLOADS[kind]
    payload = None
    if name in record and header.get("package_version") == __version__:
        payload = _unpickle(record[name], cls)
    return kind, key, payload


@dataclass
class JobJournalContents:
    """Parsed journal state: what was accepted, what finished."""

    header: Dict[str, object]
    #: job hash -> SimJob (``None`` when the pickle could not be decoded).
    submitted: Dict[str, Optional[SimJob]] = field(default_factory=dict)
    #: job hash -> journaled outcome (``None`` when durable in the cache).
    completed: Dict[str, Optional[SimOutcome]] = field(default_factory=dict)
    dropped_lines: int = 0
    undecodable_jobs: int = 0

    def unfinished(self) -> Dict[str, SimJob]:
        """Jobs accepted but never completed, ready for resubmission.

        Submissions whose pickled job failed to decode (foreign package
        version) are excluded — they are counted in ``undecodable_jobs``
        and cannot be replayed.
        """
        return {
            key: job
            for key, job in self.submitted.items()
            if key not in self.completed and job is not None
        }


class JobJournal:
    """Append-only JSONL record of cluster submissions and completions."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.log = AppendLog(path, JOB_JOURNAL_FORMAT)
        self.path = self.log.path

    def exists(self) -> bool:
        return self.log.exists()

    def start(self, header: Optional[Dict[str, object]] = None) -> None:
        """Begin a fresh journal (truncates any previous file)."""
        self.log.start({"package_version": __version__, **(header or {})})

    def record_submission(self, key: str, job: SimJob) -> None:
        """Journal one accepted job before it is dispatched to a shard."""
        self.log.append(_submitted(key, job))

    def record_completion(
        self, key: str, outcome: Optional[SimOutcome] = None
    ) -> None:
        """Journal one settled job; ``outcome`` rides along when the
        cluster has no shared result cache to keep it durable."""
        self.log.append(_completed(key, outcome))

    def load(self) -> JobJournalContents:
        """Parse the journal, tolerating a truncated/garbled trailing line."""
        header, records, dropped = self.log.load(_decode)
        contents = JobJournalContents(header=header, dropped_lines=dropped)
        for kind, key, payload in records:
            if kind == "completed":
                contents.completed[key] = payload
                continue
            contents.submitted[key] = payload
            if payload is None:
                contents.undecodable_jobs += 1
        return contents

    def resume(self) -> JobJournalContents:
        """Load for a daemon restart: repair the tail, compact, return state.

        The rewritten journal keeps the header (restamped with this
        package version), every unfinished submission, and completed
        records that still carry their outcome (cache-less clusters).
        Completed work durable in the result cache is compacted away.
        """
        contents = self.load()
        records = [_submitted(k, job) for k, job in contents.unfinished().items()]
        records += [
            _completed(key, outcome)
            for key, outcome in contents.completed.items()
            if outcome is not None
        ]
        self.log.rewrite({**contents.header, "package_version": __version__}, records)
        contents.dropped_lines = 0
        return contents
