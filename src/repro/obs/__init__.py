"""Zero-dependency telemetry: tracing spans, metrics, exporters.

Spans are opt-in (``trace.TRACER`` is a null tracer until a
:class:`Telemetry` session installs a real one); the metrics registry
(``metrics.METRICS``) is always on.  Read ``TRACER`` off the *module*
attribute at each span site so sessions can swap the tracer underneath
cached imports.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".export": (
        "Telemetry", "chrome_trace", "write_chrome_trace", "write_spans_jsonl",
    ),
    ".metrics": (
        "METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    ),
    ".trace": (
        "NullTracer", "Span", "SpanContext", "Tracer", "current_context",
        "set_tracer",
    ),
})

__all__ = [
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "SpanContext",
    "Telemetry",
    "Tracer",
    "chrome_trace",
    "current_context",
    "set_tracer",
    "write_chrome_trace",
    "write_spans_jsonl",
]
