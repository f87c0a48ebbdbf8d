"""In-memory spans around the program's layer boundaries, recorded from outside.

:class:`SpanRecorder` wraps public functions of the program (by patching the
attribute on its owning class or module) so that every call records one span:
name, start, end, the span that was open on the same thread when it started,
and the thread's current request context.  Nothing under ``src/`` knows about
it; :meth:`SpanRecorder.uninstall` restores the original attributes.

Spans stay in a list until the benchmark reads them at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call; times are ``perf_counter_ns`` values."""

    id: int
    name: str
    parent: Optional[int]
    start: int
    end: int = 0
    #: Request context of the recording thread (see :meth:`SpanRecorder.context`).
    context: Dict[str, Any] = field(default_factory=dict)
    #: Facts taken from the call's result (e.g. simulated cycles).
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


#: ``(span name, owner, attribute, result -> attrs)``: one patched entry point.
Patch = Tuple[str, Any, str, Optional[Callable[[Any], Dict[str, Any]]]]


class SpanRecorder:
    """Collects spans from every thread of the process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around the body, nested under this thread's open span."""
        stack = self._stack()
        record = Span(
            id=next(self._ids),
            name=name,
            parent=stack[-1].id if stack else None,
            start=self.clock(),
            context=getattr(self._local, "context", {}),
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def context(self, **tags: Any) -> Iterator[None]:
        """Tag every span this thread starts inside the body (request identity)."""
        previous = getattr(self._local, "context", {})
        self._local.context = {**previous, **tags}
        try:
            yield
        finally:
            self._local.context = previous

    def wrap(
        self,
        name: str,
        function: Callable,
        on_result: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if on_result is not None:
                    record.attrs.update(on_result(result))
                return result

        return traced

    def install(self, patches: Iterable[Patch]) -> None:
        """Replace each entry point by a traced wrapper (classmethods included)."""
        for name, owner, attribute, on_result in patches:
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__, on_result))
            else:
                replacement = self.wrap(name, original, on_result)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)


def _covered(interval: Tuple[int, int], pieces: List[Tuple[int, int]]) -> int:
    """Length of ``interval`` covered by the union of ``pieces``."""
    low, high = interval
    covered = 0
    cursor = low
    for start, end in sorted(pieces):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered((span.start, span.end), children.get(span.id, []))
        for span in spans
    }
