"""Hierarchical tracing: spans over the query → stage → kernel path.

A :class:`Tracer` produces :class:`Span` objects — named intervals on a
monotonic clock (``time.perf_counter``, rebased to the tracer's creation
instant) with structured attributes and a parent link.  Spans nest
automatically per thread: the innermost open span on the current thread
becomes the parent of the next one, so a batch worker's ``query`` span
encloses its ``stage.*`` spans which enclose kernel-phase spans, with no
plumbing at the call sites.  Cross-thread nesting (a worker's ``query``
span under the main thread's ``batch`` span) is expressed with an
explicit ``parent=``.

A *disabled* tracer is a strict no-op: ``span()`` returns one shared,
stateless null span, and hot paths guard their instrumentation with a
single attribute check (``tracer.enabled``), so running with tracing off
costs one branch per call site — nothing is allocated, timed, or stored
(see ``tests/observability/test_tracer.py`` for the overhead guard).

Finished spans accumulate on the tracer (append-only, safe under the
GIL) and export as JSON lines via
:func:`repro.observability.export.write_trace_jsonl`.
"""

from __future__ import annotations

import itertools
import threading
import time


class _NullSpan:
    """The shared no-op span a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key: str, value) -> None:
        """Discard an attribute (no-op)."""

    @property
    def duration(self) -> float:
        return 0.0


#: The single null span instance (never mutated, shared by every
#: disabled tracer).
NULL_SPAN = _NullSpan()


class Span:
    """One named, attributed interval of a trace.

    Use as a context manager: entering records the start time and pushes
    the span onto the owning tracer's per-thread stack; exiting records
    the end time, pops the stack, and appends the span to the tracer's
    finished list.  Timings are monotonic seconds relative to the
    tracer's creation.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attributes",
        "thread",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, attributes: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.start = 0.0
        self.end = 0.0
        self.thread = threading.get_ident()

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        return max(self.end - self.start, 0.0)

    def set(self, key: str, value) -> None:
        """Attach (or overwrite) one structured attribute."""
        self.attributes[key] = value

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack()
        if self.parent_id is None and stack:
            self.parent_id = stack[-1].span_id
        trace_id = getattr(tracer._local, "trace_id", None)
        if trace_id is not None and "trace_id" not in self.attributes:
            self.attributes["trace_id"] = trace_id
        stack.append(self)
        self.start = time.perf_counter() - tracer._t0
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        self.end = time.perf_counter() - tracer._t0
        if exc is not None:
            # Failure path: the span still closes (and reaches the
            # finished list) with structured error attributes, so a
            # raising stage never leaks an open span.
            self.attributes["error"] = True
            self.attributes["exception_type"] = type(exc).__name__
            self.attributes["exception"] = repr(exc)
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - malformed nesting
            stack.remove(self)
        tracer.spans.append(self)
        return False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "thread": self.thread,
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration * 1000:.3f}ms)"
        )


class Tracer:
    """Produces and collects spans.

    ``Tracer()`` is enabled; :data:`NULL_TRACER` (== ``Tracer(enabled=
    False)``) is the shared disabled instance every pipeline defaults
    to.  Span creation is thread-safe: ids come from an atomic counter,
    the open-span stack is thread-local, and the finished list is
    append-only.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._t0 = time.perf_counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, parent: Span | None = None, **attributes):
        """Open a span named ``name`` (use as a context manager).

        ``parent`` overrides the automatic (thread-local) parent; any
        other keyword becomes a structured attribute.  On a disabled
        tracer this returns the shared :data:`NULL_SPAN` immediately.
        """
        if not self.enabled:
            return NULL_SPAN
        parent_id = parent.span_id if isinstance(parent, Span) else None
        return Span(self, name, next(self._ids), parent_id, attributes)

    def set_trace_id(self, trace_id: str | None) -> None:
        """Bind (or clear) the wire-level trace id for this thread.

        While set, every span entered on this thread is stamped with a
        ``trace_id`` attribute, correlating in-process spans with the
        id echoed on the daemon's JSON-lines reply.  No-op when
        disabled.
        """
        if not self.enabled:
            return
        self._local.trace_id = trace_id

    def trace_id(self) -> str | None:
        """The trace id bound to this thread, if any."""
        return getattr(self._local, "trace_id", None)

    def drain(self) -> list[Span]:
        """Atomically take (and clear) the finished-span list.

        Best-effort under concurrency: a thread holding a reference to
        the old list can finish a span into it just after the swap; such
        a span is dropped.  Fine for a telemetry sink, not for tests.
        """
        spans, self.spans = self.spans, []
        return spans

    def annotate(self, key: str, value) -> None:
        """Set an attribute on the innermost open span of this thread.

        No-op when disabled or when no span is open.
        """
        if not self.enabled:
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].set(key, value)

    def current_span(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Drop every finished span (open spans are unaffected)."""
        self.spans = []

    def to_dicts(self) -> list[dict]:
        """Finished spans as plain dicts, in finish order."""
        return [span.to_dict() for span in self.spans]


#: The process-wide disabled tracer: the default everywhere tracing is
#: optional.  Never collects anything.
NULL_TRACER = Tracer(enabled=False)
