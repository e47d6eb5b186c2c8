"""Always-on counters / gauges / histograms with a process registry.

Unlike tracing (opt-in, span objects, timestamps), metrics are plain
numbers bumped at coarse sites — once per frame, round, or replay — so
the registry stays on unconditionally and a telemetry session merely
snapshots it.  Worker processes ``drain()`` their registry after each
phase and ship the delta back; the coordinator ``merge()``s it, so wire
bytes and cache hits counted remotely land in one snapshot.

Instruments are created on first use (``METRICS.counter(name)``) and the
returned handle stays valid across ``drain()`` (counts reset in place;
gauges keep their level).
Metric names are dotted (``rpc.bytes_sent``); see the README catalogue.
"""

from __future__ import annotations

import threading
from typing import Any

# Histogram bucket upper bounds (seconds / bytes both fit: powers of 4).
_BUCKETS = tuple(4.0 ** e for e in range(-6, 10))


class Counter:
    """Monotonic float/int accumulator."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """Fixed power-of-4 buckets plus sum/count (Prometheus-shaped)."""

    __slots__ = ("counts", "total", "count")

    def __init__(self):
        self.counts = [0] * (len(_BUCKETS) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(_BUCKETS):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1


class StructuredWarning(dict):
    """A warning event published through the registry (name + fields)."""


class MetricsRegistry:
    """Name -> instrument map with snapshot / drain / merge."""

    #: cap on retained structured warnings (oldest dropped beyond this)
    MAX_WARNINGS = 256

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.warnings: list[StructuredWarning] = []

    # -- instrument access (get-or-create; handles are cacheable) -------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    def value(self, name: str) -> int | float:
        """Current counter value (0 if the counter was never touched)."""
        with self._lock:
            instrument = self._counters.get(name)
            return instrument.value if instrument is not None else 0

    def warn(self, counter_name: str, message: str,
             amount: int | float = 1, **fields: Any) -> None:
        """Structured warning: bump ``counter_name`` by ``amount`` and
        retain the event so callers/exporters see *why*, not just how
        often."""
        self.counter(counter_name).inc(amount)
        with self._lock:
            self.warnings.append(StructuredWarning(
                counter=counter_name, message=message, **fields))
            if len(self.warnings) > self.MAX_WARNINGS:
                del self.warnings[:-self.MAX_WARNINGS]

    # -- snapshot / transport -------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view (pickle/json safe)."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: {"counts": list(h.counts), "sum": h.total,
                        "count": h.count}
                    for k, h in self._histograms.items()
                },
                "warnings": [dict(w) for w in self.warnings],
            }

    def drain(self) -> dict[str, Any]:
        """Snapshot, then zero every counter and histogram *in place* so
        cached handles stay valid (worker-side per-phase delta shipping).
        Gauges keep their value: a gauge is a level, not a delta, and
        ``merge`` takes the incoming one, so a zeroed gauge shipped by the
        next phase would overwrite the coordinator's."""
        snap = self.snapshot()
        with self._lock:
            for c in self._counters.values():
                c.value = 0
            for h in self._histograms.values():
                h.counts = [0] * len(h.counts)
                h.total = 0.0
                h.count = 0
            self.warnings.clear()
        return snap

    def merge(self, snap: dict[str, Any] | None) -> None:
        """Fold a drained snapshot from another process into this one
        (counters/histograms add; gauges take the incoming value)."""
        if not snap:
            return
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snap.get("histograms", {}).items():
            hist = self.histogram(name)
            with self._lock:
                for i, n in enumerate(data["counts"]):
                    hist.counts[i] += n
                hist.total += data["sum"]
                hist.count += data["count"]
        warnings = snap.get("warnings")
        if warnings:
            with self._lock:
                self.warnings.extend(StructuredWarning(w) for w in warnings)
                if len(self.warnings) > self.MAX_WARNINGS:
                    del self.warnings[:-self.MAX_WARNINGS]

    def prometheus_text(self) -> str:
        """Prometheus text-exposition snapshot (``repro`` namespace;
        dots become underscores)."""
        snap = self.snapshot()
        lines: list[str] = []

        def sanitize(name: str) -> str:
            return "repro_" + name.replace(".", "_").replace("-", "_")

        for name in sorted(snap["counters"]):
            metric = sanitize(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {snap['counters'][name]}")
        for name in sorted(snap["gauges"]):
            metric = sanitize(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {snap['gauges'][name]}")
        for name in sorted(snap["histograms"]):
            metric = sanitize(name)
            data = snap["histograms"][name]
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for bound, n in zip(_BUCKETS, data["counts"]):
                cumulative += n
                lines.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
            cumulative += data["counts"][-1]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {data['sum']}")
            lines.append(f"{metric}_count {data['count']}")
        return "\n".join(lines) + "\n"


#: The process-wide registry.  Always on; counter bumps at coarse sites
#: cost one dict hit (or nothing, with a cached handle) + an add.
METRICS = MetricsRegistry()
