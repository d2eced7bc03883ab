"""Per-request spans with phase timings, and a slow-query ring buffer.

A :class:`Span` is created at the edge (server connection handler, or
a benchmark harness), *activated* on the current thread, and finished
when the reply is written.  Layers in between never see the span
passed down — they ask :func:`current_span` and annotate it if one is
active, so the local hot path (no span) costs one thread-local read.

Phases are cumulative: ``span.phase("engine")`` may be entered several
times (a batch), and the span records the total milliseconds per
label.  The conventional labels, in request order:

``admission`` → ``engine`` → ``encode`` → ``write``

The :class:`SlowQueryLog` keeps the last N finished spans that
exceeded a threshold in a preallocated ring: recording is a threshold
compare plus one slot assignment under a lock, and reading returns
entries oldest-first.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class _Active(threading.local):
    # A class default, so reading an unset thread's span is a plain
    # attribute hit rather than a caught AttributeError.
    span: Optional[Span] = None


_active = _Active()


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (64 random bits).

    Generated by the caller that *originates* a request — the
    :class:`RemoteSession` for remote calls, the server connection
    handler for clients too old to send one — and carried unchanged
    through every record the request touches (client span, wire
    envelope, server span, access log, slow-query log).
    """
    return os.urandom(8).hex()


class Span:
    """One request's timing record: total duration plus per-phase ms.

    :meth:`add_phase` adds a duration the caller timed itself (the
    store's request path passes differences of its own clock stamps);
    :meth:`phase` times a ``with`` body and calls it.
    """

    __slots__ = (
        "verb",
        "detail",
        "session_key",
        "trace_id",
        "started",
        "phases",
        "annotations",
        "error_kind",
        "duration_ms",
    )

    def __init__(
        self,
        verb: str,
        detail: str = "",
        session_key: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.verb = verb
        self.detail = detail
        self.session_key = session_key
        self.trace_id = trace_id
        self.started = time.perf_counter()
        self.phases: Dict[str, float] = {}
        self.annotations: Dict[str, Any] = {}
        self.error_kind: Optional[str] = None
        self.duration_ms: Optional[float] = None

    def add_phase(self, label: str, ms: float) -> None:
        """Add ``ms`` milliseconds to phase ``label``."""
        phases = self.phases
        phases[label] = phases.get(label, 0.0) + ms

    @contextmanager
    def phase(self, label: str) -> Iterator[None]:
        """Time the ``with`` body into phase ``label``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(label, (time.perf_counter() - start) * 1000.0)

    def annotate(self, key: str, value: Any) -> None:
        self.annotations[key] = value

    def fail(self, error_kind: str) -> None:
        self.error_kind = error_kind

    def finish(self) -> float:
        """Stamp and return the total duration in milliseconds."""
        self.duration_ms = (time.perf_counter() - self.started) * 1000.0
        return self.duration_ms

    def as_dict(self) -> Dict[str, Any]:
        return {
            "verb": self.verb,
            "detail": self.detail,
            "session_key": self.session_key,
            "trace_id": self.trace_id,
            "duration_ms": (
                round(self.duration_ms, 4)
                if self.duration_ms is not None
                else None
            ),
            "phases": {
                label: round(ms, 4) for label, ms in self.phases.items()
            },
            "annotations": dict(self.annotations),
            "outcome": "error" if self.error_kind else "ok",
            "error_kind": self.error_kind,
        }


def current_span() -> Optional[Span]:
    """The span activated on this thread, or None outside a request."""
    return _active.span


@contextmanager
def activate(span: Span) -> Iterator[Span]:
    """Make ``span`` the thread's current span for the duration."""
    previous = _active.span
    _active.span = span
    try:
        yield span
    finally:
        _active.span = previous


class SlowQueryLog:
    """Fixed-capacity ring of the slowest recent request spans."""

    def __init__(
        self, capacity: int = 128, threshold_ms: float = 50.0
    ) -> None:
        self.capacity = capacity
        self.threshold_ms = threshold_ms
        self._lock = threading.Lock()
        self._entries: List[Optional[Span]] = [None] * capacity
        self._next = 0
        self._recorded = 0

    def observe(self, span: Span) -> bool:
        """Record a finished span if it was slow; True when kept.

        The span itself is retained and becomes a dict only when
        :meth:`entries` reads it, so even a threshold-0 log keeps the
        per-request cost to the compare and the slot assignment.  The
        caller must not change the span afterwards.
        """
        duration = span.duration_ms
        if duration is None or duration < self.threshold_ms:
            return False
        with self._lock:
            self._entries[self._next] = span
            self._next = (self._next + 1) % self.capacity
            self._recorded += 1
        return True

    @property
    def recorded(self) -> int:
        with self._lock:
            return self._recorded

    def entries(self) -> List[Dict[str, Any]]:
        """Retained entries, oldest first."""
        with self._lock:
            spans = [
                span
                for span in self._entries[self._next:] + self._entries[: self._next]
                if span is not None
            ]
            for span in spans:
                if span.trace_id is None:
                    # Local stores have no wire envelope to carry an id;
                    # mint one on first read so every kept entry is
                    # greppable, and the same id on every later read.
                    span.trace_id = new_trace_id()
        return [span.as_dict() for span in spans]
