"""Crash-safe files: one append-only JSON-lines log and one atomic write.

* :func:`atomic_write` replaces a file as a whole (temp file beside it,
  then ``os.replace``): readers see the old file or the new one, never a
  mix.  Every result-cache entry is stored this way.
* :class:`AppendLog` is the file format of the exploration run journal and
  the cluster job journal: a header line carrying ``"type": "header"`` and
  the journal's format number, then one JSON object per line.  Appends are
  flushed and fsynced, so a crash mid-append at worst truncates the final
  line, which :meth:`AppendLog.load` drops; damage anywhere else is an
  error.  :meth:`AppendLog.rewrite` (tail repair, compaction) goes through
  :func:`atomic_write`, so a crash during it cannot lose a record.

The journals are record codecs on top: they turn their objects into JSON
records and back, and decide what a rewrite keeps.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple, TypeVar, Union

__all__ = ["AppendLog", "JournalError", "atomic_write"]

T = TypeVar("T")

Record = Dict[str, object]


class JournalError(ValueError):
    """A journal cannot be used: missing, bad header, wrong format, or a
    damaged record before its final line."""


def atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Replace ``path`` with ``data`` (temp file beside it + ``os.replace``).

    Concurrent writers each install a complete file and the last rename
    wins.  The temp file is removed on any failure, including a failed
    rename.  The data is not fsynced: this protects against a crashing
    process, not against power loss.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}-", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _line(record: Record) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


class AppendLog:
    """Append-only JSON-lines file: one header line, then records."""

    def __init__(self, path: Union[str, Path], format: int) -> None:
        self.path = Path(path)
        self.format = format

    def exists(self) -> bool:
        return self.path.is_file() and self.path.stat().st_size > 0

    def _header_line(self, header: Record) -> str:
        return _line({**header, "type": "header", "format": self.format})

    def start(self, header: Record) -> None:
        """Begin a fresh log holding only ``header`` (truncates any file)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", encoding="utf-8") as handle:
            handle.write(self._header_line(header))

    def append(self, record: Record) -> None:
        """Append one record; it is on disk (flushed and fsynced) on return."""
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(_line(record))
            handle.flush()
            os.fsync(handle.fileno())

    def rewrite(self, header: Record, records: Iterable[Record]) -> None:
        """Atomically replace the log with ``header`` and ``records``."""
        text = self._header_line(header) + "".join(map(_line, records))
        atomic_write(self.path, text.encode("utf-8"))

    def load(
        self, decode: Callable[[Record, Record], T]
    ) -> Tuple[Record, List[T], int]:
        """Parse the log into ``(header, decoded records, dropped lines)``.

        ``decode(record, header)`` turns each record object into the
        caller's type, raising ``ValueError``/``KeyError``/``TypeError``/
        ``AttributeError`` when it cannot.  A line that is not a JSON
        object or fails to decode is a crash artefact when it is the final
        line — it is dropped and counted — and :class:`JournalError`
        anywhere else.
        """
        if not self.exists():
            raise JournalError(f"journal {self.path} does not exist or is empty")
        lines = self.path.read_text(encoding="utf-8").splitlines()
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as error:
            raise JournalError(f"journal {self.path}: unreadable header") from error
        if not isinstance(header, dict) or header.get("type") != "header":
            raise JournalError(f"journal {self.path}: first line is not a header")
        if header.get("format") != self.format:
            raise JournalError(
                f"journal {self.path}: format {header.get('format')!r} "
                f"!= {self.format}"
            )

        records: List[T] = []
        dropped = 0
        for position, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError("record is not a JSON object")
                records.append(decode(record, header))
            except (ValueError, KeyError, TypeError, AttributeError):
                if position == len(lines):
                    # Interrupted mid-append: drop the partial final record.
                    dropped += 1
                    continue
                raise JournalError(
                    f"journal {self.path}: unreadable record on line {position}"
                )
        return header, records, dropped
