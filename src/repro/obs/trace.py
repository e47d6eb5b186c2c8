"""Wall-clock tracing spans with cross-process stitching.

A :class:`Tracer` produces nested spans (``round``, ``train_client``,
``aggregate``, ``broadcast``, ``encode``/``decode``, ``rpc_frame``,
``tape_replay``) with explicit parent ids.  Span ids are strings of the
form ``"<origin>-<counter>"`` so ids minted in different processes never
collide; a worker process adopts the coordinator's :class:`SpanContext`
(injected into task payloads / RPC frames) as the base parent for every
span it opens, which stitches remote children into one trace.

The module-level :data:`TRACER` defaults to a :class:`NullTracer` whose
``enabled`` attribute is ``False`` and whose ``span`` returns one shared
no-op span, so a plain ``with TRACER.span(...)`` stays cheap on the
disabled path; only sites with costly extra work guard with
``if TRACER.enabled:``.  ``time.perf_counter`` supplies monotonic span
durations; each tracer records a wall-clock offset at construction so
exported timestamps from different processes share one epoch-aligned
axis (good enough to *order* spans across machines; durations are exact).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, NamedTuple


class SpanContext(NamedTuple):
    """The wire-portable identity of an in-flight span."""

    trace_id: str
    span_id: str


class Span:
    """One timed operation.  Usable as a context manager; mutate
    ``attrs`` inside (or after) the ``with`` block to annotate it."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start",
                 "end", "attrs")

    def __init__(self, tracer: "Tracer", name: str, span_id: str,
                 parent_id: str | None, attrs: dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.tracer.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._pop(self)

    def to_dict(self) -> dict[str, Any]:
        """Export as a plain dict (pickle/json safe, cross-process)."""
        offset = self.tracer.clock_offset
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.tracer.trace_id,
            "process": self.tracer.process,
            "start": self.start + offset,
            "end": self.end + offset,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


class _NullSpan:
    """Shared, reusable do-nothing span for the disabled path."""

    __slots__ = ()

    @property
    def attrs(self) -> dict[str, Any]:
        # fresh throwaway dict: writes on the disabled path vanish
        # instead of accumulating on a shared object
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: ``enabled`` is False and ``span`` returns a
    shared no-op context manager, whose ``attrs`` writes vanish."""

    enabled = False
    trace_id = ""

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_context(self) -> None:
        return None

    def adopt(self, context: SpanContext | None) -> None:
        return None

    def absorb(self, spans: list[dict[str, Any]] | None) -> None:
        return None

    def export(self) -> list[dict[str, Any]]:
        return []


class Tracer:
    """Collects finished spans; thread-safe via a thread-local span
    stack (each thread nests independently under its adopted base)."""

    enabled = True

    def __init__(self, trace_id: str | None = None,
                 origin: str | None = None,
                 process: str | None = None):
        self.trace_id = trace_id or f"t{os.getpid()}-{int(time.time())}"
        self.origin = origin or f"p{os.getpid()}"
        self.process = process or self.origin
        # Aligns perf_counter timestamps to the wall clock so spans from
        # different processes share one time axis when exported.
        self.clock_offset = time.time() - time.perf_counter()
        self._counter = 0
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._base_parent: str | None = None
        self.spans: list[dict[str, Any]] = []
        #: span dicts absorbed from worker processes (already exported)
        self.foreign: list[dict[str, Any]] = []

    # -- span lifecycle -------------------------------------------------

    def _next_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"{self.origin}-{self._counter}"

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        parent = stack[-1].span_id if stack else self._base_parent
        return Span(self, name, self._next_id(), parent, attrs)

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit; drop it wherever it is
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            self.spans.append(span.to_dict())

    # -- cross-process stitching ---------------------------------------

    def current_context(self) -> SpanContext | None:
        """Context of the innermost open span on this thread (to inject
        into task payloads / RPC frames), or the adopted base."""
        stack = self._stack()
        if stack:
            return stack[-1].context
        if self._base_parent is not None:
            return SpanContext(self.trace_id, self._base_parent)
        return None

    def adopt(self, context: SpanContext | None) -> None:
        """Make ``context`` the parent of this tracer's top-level spans
        (worker-side: stitches local spans under the remote round)."""
        if context is None:
            return
        self.trace_id = context[0]
        self._base_parent = context[1]

    # -- export ---------------------------------------------------------

    def absorb(self, spans: list[dict[str, Any]] | None) -> None:
        """Merge span dicts exported by a worker process."""
        if spans:
            with self._lock:
                self.foreign.extend(spans)

    def export(self) -> list[dict[str, Any]]:
        """All finished spans (local + absorbed) as plain dicts."""
        with self._lock:
            return list(self.spans) + list(self.foreign)

    def drain(self) -> list[dict[str, Any]]:
        """Export and clear (worker-side: ship spans back per phase)."""
        with self._lock:
            spans = list(self.spans) + list(self.foreign)
            self.spans.clear()
            self.foreign.clear()
            return spans


#: The process-wide tracer.  ``NullTracer`` unless a telemetry session
#: (``repro.obs.export.Telemetry``) or a worker-side adoption installs a
#: real one.  Import the *module* and read ``trace.TRACER`` at call time
#: — ``from ... import TRACER`` would freeze the null tracer.
TRACER: Tracer | NullTracer = NullTracer()


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the process-wide tracer; returns the old."""
    global TRACER
    previous = TRACER
    TRACER = tracer
    return previous


def current_context() -> SpanContext | None:
    """Wire-portable context of the innermost open span, if tracing."""
    tracer = TRACER
    return tracer.current_context() if tracer.enabled else None
