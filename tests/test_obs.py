"""Tests for the telemetry subsystem: tracer, metrics, exporters, stitching.

The stitching suite is the subsystem's acceptance bar: spans produced in
worker processes (socket-engine phases) must ship
back with the phase results and land in the exported trace with resolvable
parents — ``train_client`` spans nest under the coordinator's ``round``
span whatever process trained the client, including rounds where a worker
died mid-phase.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.data import build_benchmark, cifar100_like
from repro.edge import jetson_cluster
from repro.federated import TrainConfig, create_trainer
from repro.federated.base import SGDClient
from repro.obs import (
    METRICS,
    MetricsRegistry,
    NullTracer,
    Telemetry,
    Tracer,
    chrome_trace,
    set_tracer,
)
from repro.obs import trace as trace_mod


@pytest.fixture
def spec():
    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=2,
                       iterations_per_round=3)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_assigns_parents(self):
        tracer = Tracer(origin="t")
        with tracer.span("outer") as outer:
            with tracer.span("inner", depth=1):
                pass
        spans = tracer.export()
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == outer.span_id
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["attrs"]["depth"] == 1
        assert by_name["inner"]["start"] >= by_name["outer"]["start"]
        assert by_name["inner"]["end"] <= by_name["outer"]["end"]

    def test_span_ids_carry_origin(self):
        tracer = Tracer(origin="w7")
        with tracer.span("a"):
            pass
        (span,) = tracer.export()
        assert span["span_id"].startswith("w7-")

    def test_null_tracer_is_inert(self):
        null = NullTracer()
        assert not null.enabled
        with null.span("anything", x=1) as span:
            span.attrs["y"] = 2  # throwaway dict: must not accumulate
        assert null.current_context() is None
        with null.span("more") as again:
            assert "y" not in again.attrs

    def test_set_tracer_restores_previous(self):
        previous = trace_mod.TRACER
        tracer = Tracer(origin="x")
        assert set_tracer(tracer) is previous
        try:
            assert trace_mod.TRACER is tracer
        finally:
            set_tracer(previous)
        assert trace_mod.TRACER is previous

    def test_adopt_stitches_across_tracers(self):
        parent = Tracer(origin="main")
        with parent.span("round") as round_span:
            ctx = parent.current_context()
        worker = Tracer(origin="w1", process="worker-1")
        worker.adopt(tuple(ctx))  # context pickles as a plain tuple
        with worker.span("train_client"):
            pass
        parent.absorb(worker.drain())
        spans = parent.export()
        ids = {s["span_id"] for s in spans}
        train = next(s for s in spans if s["name"] == "train_client")
        assert train["parent_id"] == round_span.span_id
        assert train["parent_id"] in ids
        assert train["trace_id"] == parent.trace_id
        assert train["process"] == "worker-1"

    def test_drain_clears_but_ids_keep_advancing(self):
        tracer = Tracer(origin="w")
        with tracer.span("a"):
            pass
        first = tracer.drain()
        with tracer.span("b"):
            pass
        second = tracer.drain()
        assert tracer.export() == []
        assert first[0]["span_id"] != second[0]["span_id"]


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_handles_survive_drain(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc(3)
        snap = registry.drain()
        assert snap["counters"]["a.b"] == 3
        counter.inc(2)  # the pre-drain handle still feeds the registry
        assert registry.value("a.b") == 2

    def test_merge_adds_counters_and_histograms(self):
        source, target = MetricsRegistry(), MetricsRegistry()
        source.counter("n").inc(4)
        source.histogram("h").observe(0.5)
        source.gauge("g").set(7)
        target.counter("n").inc(1)
        target.merge(source.drain())
        assert target.value("n") == 5
        assert target.snapshot()["histograms"]["h"]["count"] == 1
        assert target.snapshot()["gauges"]["g"] == 7

    def test_gauges_keep_their_level_across_drains(self):
        # a worker drains after every phase; a gauge set once at its start
        # must not reach the coordinator as 0 from the second phase on
        source, target = MetricsRegistry(), MetricsRegistry()
        source.gauge("g").set(7)
        source.counter("n").inc(2)
        target.merge(source.drain())
        target.merge(source.drain())
        assert target.snapshot()["gauges"]["g"] == 7
        assert target.value("n") == 2

    def test_warn_bumps_counter_and_retains_fields(self):
        registry = MetricsRegistry()
        registry.warn("w.x", "three things went sideways", amount=3, things=3)
        assert registry.value("w.x") == 3
        (warning,) = registry.warnings
        assert warning["counter"] == "w.x"
        assert warning["things"] == 3

    def test_warnings_are_bounded(self):
        registry = MetricsRegistry()
        for index in range(registry.MAX_WARNINGS + 10):
            registry.warn("w", f"event {index}")
        assert len(registry.warnings) == registry.MAX_WARNINGS
        assert registry.warnings[-1]["message"] == (
            f"event {registry.MAX_WARNINGS + 9}"
        )

    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter("rpc.bytes_sent").inc(12)
        registry.histogram("lat").observe(0.1)
        text = registry.prometheus_text()
        assert "# TYPE repro_rpc_bytes_sent counter" in text
        assert "repro_rpc_bytes_sent 12" in text
        assert 'repro_lat_bucket{le="+Inf"} 1' in text
        assert "repro_lat_count 1" in text


# ----------------------------------------------------------------------
# exporters / telemetry session
# ----------------------------------------------------------------------
class TestExport:
    def test_chrome_trace_events(self):
        tracer = Tracer(origin="t", process="main")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        trace = chrome_trace(tracer.export())
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert meta[0]["args"]["name"] == "main"
        assert {e["name"] for e in complete} == {"outer", "inner"}
        inner = next(e for e in complete if e["name"] == "inner")
        outer = next(e for e in complete if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert inner["dur"] <= outer["dur"]

    def test_session_writes_all_exports(self, tmp_path):
        with Telemetry(tmp_path / "out") as session:
            METRICS.counter("test.obs_session").inc(5)
            with trace_mod.TRACER.span("unit"):
                pass
            paths = session.flush()
        for name in ("spans", "trace", "metrics_prom", "metrics_json"):
            assert paths[name].exists(), name
        spans = [json.loads(line)
                 for line in paths["spans"].read_text().splitlines()]
        assert [s["name"] for s in spans] == ["unit"]
        snapshot = json.loads(paths["metrics_json"].read_text())
        # session-relative: exactly what this test added, not process totals
        assert snapshot["counters"]["test.obs_session"] == 5
        assert trace_mod.TRACER.enabled is False

    def test_session_restores_tracer_on_close(self):
        before = trace_mod.TRACER
        session = Telemetry()
        assert trace_mod.TRACER is session.tracer
        session.close()
        assert trace_mod.TRACER is before


# ----------------------------------------------------------------------
# cross-process stitching
# ----------------------------------------------------------------------
def run_traced(spec, config, engine, method="fedavg", poison_client=None):
    """One trainer run under an enabled telemetry session; returns
    (exported spans, session metrics snapshot, run result)."""
    bench = build_benchmark(spec, num_clients=3, rng=np.random.default_rng(0))
    with Telemetry() as session:
        trainer = create_trainer(
            method, bench, config, cluster=jetson_cluster(), engine=engine,
        )
        if poison_client is not None:
            trainer.clients[poison_client].__class__ = _DyingClient
        try:
            result = trainer.run()
        finally:
            trainer.close()
        return session.spans(), session.metrics_snapshot(), result


def assert_worker_spans_stitch(spans):
    """Every worker-side span must resolve to a parent in the export, and
    every worker-side train_client span must nest under a round span."""
    ids = {s["span_id"] for s in spans}
    rounds = {s["span_id"] for s in spans if s["name"] == "round"}
    worker_spans = [s for s in spans if s["process"] != "main"]
    assert worker_spans, "no spans came back from the workers"
    for span in worker_spans:
        assert span["parent_id"] in ids, (span["name"], span["parent_id"])
    trained = [s for s in worker_spans if s["name"] == "train_client"]
    assert trained, "no worker-side train_client spans"
    for span in trained:
        assert span["parent_id"] in rounds


class TestProcessEngineStitching:
    def test_worker_spans_have_resolvable_parents(self, spec, config):
        spans, metrics, _ = run_traced(spec, config, "socket:2")
        assert_worker_spans_stitch(spans)
        # worker-side counters merged back with the phase results: only
        # workers decode broadcasts
        assert metrics["counters"]["round.clients_reported"] > 0
        assert metrics["counters"]["broadcast.decodes"] > 0


class TestSocketEngineStitching:
    def test_worker_spans_have_resolvable_parents(self, spec, config):
        spans, metrics, _ = run_traced(spec, config, "socket:2")
        assert_worker_spans_stitch(spans)
        assert metrics["counters"]["rpc.bytes_sent"] > 0
        assert metrics["counters"]["rpc.bytes_received"] > 0
        # rpc_frame spans exist on both sides of the socket
        frame_processes = {
            s["process"] for s in spans if s["name"] == "rpc_frame"
        }
        assert "main" in frame_processes
        assert any(p != "main" for p in frame_processes)

    def test_worker_death_keeps_trace_consistent(self, spec, config,
                                                 tmp_path):
        token = tmp_path / "poison.token"
        token.write_text("armed")
        _DyingClient.token_path = str(token)
        try:
            spans, metrics, result = run_traced(
                spec, config, "socket:2", poison_client=0
            )
        finally:
            _DyingClient.token_path = None
        assert sum(r.lost for r in result.rounds) > 0
        # surviving workers' spans still stitch; nothing dangles from the
        # worker that died mid-phase
        assert_worker_spans_stitch(spans)
        assert metrics["counters"]["serve.workers_lost"] >= 1
        warning = next(
            w for w in metrics["warnings"]
            if w["counter"] == "serve.workers_lost"
        )
        assert "lost mid-round" in warning["message"]


class TestTaskBoundaryStitching:
    def test_boundary_phases_parent_to_an_engine_map_span(self, spec,
                                                          config):
        """Begin and end phases run on the workers outside every round
        span; their worker spans parent to the ``engine_map`` span the
        socket engine opens for each such phase."""
        spans, _, _ = run_traced(spec, config, "socket:2", method="fedknow")
        assert_worker_spans_stitch(spans)
        maps = {
            s["span_id"] for s in spans
            if s["name"] == "engine_map" and s["process"] == "main"
        }
        # two tasks: a begin and an end phase each
        assert len(maps) == 4
        replays = [
            s for s in spans
            if s["name"] == "tape_replay" and s["parent_id"] in maps
        ]
        assert replays, "no worker tape replays under a boundary phase"
        assert all(s["process"] != "main" for s in replays)


class _DyingClient(SGDClient):
    """Hard-exits the worker process once, the first time it trains while
    the one-shot poison token file exists."""

    token_path: str | None = None

    def local_train(self, iterations):
        path = type(self).token_path
        if path is not None and os.path.exists(path):
            try:
                os.unlink(path)
            finally:
                os._exit(1)
        return super().local_train(iterations)


# ----------------------------------------------------------------------
# per-op replay profiles
# ----------------------------------------------------------------------
class TestTapeReplayProfiles:
    def test_tape_replay_spans_carry_op_timings(self, spec, config):
        spans, metrics, _ = run_traced(spec, config, "batched:2")
        replays = [s for s in spans if s["name"] == "tape_replay"]
        assert replays, "batched engine produced no tape_replay spans"
        assert metrics["counters"]["tape.replays"] >= len(replays)
        graded = [s for s in replays if s["attrs"]["kind"] == "batched"]
        assert graded
        ops = graded[0]["attrs"]["ops"]
        assert ops, "replay span carried no per-op timings"
        for name, stats in ops.items():
            assert stats["calls"] >= 1
            assert stats["seconds"] >= 0.0
        assert any(name.startswith("bwd.") for name in ops)
        # three clients under a cap of two run as chunks of 2 + 1; the gauge
        # holds the larger
        assert {s["attrs"]["batch"] for s in graded} == {1, 2}
        assert metrics["gauges"]["batched.chunk_clients"] == 2
