"""One repetition of one benchmark workload, in a fresh process.

``bench_e2e.py`` starts this script once per repetition::

    python3 workload.py '<request json>'

The request carries the workload definition (from ``spec.json``), the seed,
whether to trace, the wall-clock time the parent started this process, a
scratch directory inside the checkout and the file the speed probe writes.
The last line of standard output is one JSON object: wall time of the set-up
phases and of the run, CPU time of both, the CPU speed measured during each
(``SpeedProbe``), peak RSS, the output fingerprint, the correctness checks
and — on a traced repetition — the per-layer table folded from the
telemetry spans.

Set-up runs from process start until the first round can run: interpreter
start, imports, scenario build, trainer and model init, and (on the socket
engine) worker spawn and handshake, forced early by one trivial
``engine.map``.  Its CPU time is this process's.  The run is
``trainer.run()`` (or ``PopulationSimulator.run()``); its CPU time is this
process's during the run plus the whole CPU time of the worker processes,
which have ended when the trainer is closed.

A traced repetition opens the program's public ``repro.obs.Telemetry``
session and adds the harness's own spans around public entry points that
have none in the program (``HARNESS_SPANS``).  Untraced repetitions install
nothing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import multiprocessing
import os
import resource
import signal
import statistics
import struct
import sys
import tempfile
import time
from collections import defaultdict

#: ``(module, class, method, span name)``: public entry points of layers the
#: program does not trace itself.  Spans opened in a worker process ship back
#: with the phase telemetry but count as worker busy time, not layer time.
HARNESS_SPANS = (
    ("repro.core.restorer", "GradientRestorer", "restore_gradients", "restore"),
    ("repro.core.integrator", "GradientIntegrator", "integrate", "integrate"),
    ("repro.core.knowledge", "KnowledgeExtractor", "extract", "extract"),
    ("repro.nn.tensor", "Tensor", "backward", "backward"),
    ("repro.nn.optim", "SGD", "step", "optim_step"),
    ("repro.federated.base", "FederatedClient", "evaluate", "evaluate"),
)

#: Span name -> per-layer metric holding its self time, as a share of the
#: traced run's wall time.  ``engine_map`` and ``receive_global`` are harness
#: spans bound to the trainer's engine and client class at run time.
LAYER_SHARES = {
    "round": "trainer.round_self_pct",
    "engine_map": "engine.map_self_pct",
    "train_client": "client.local_train_pct",
    "receive_global": "client.receive_global_pct",
    "broadcast": "broadcast.self_pct",
    "aggregate": "aggregate.self_pct",
    "restore": "restorer.restore_pct",
    "integrate": "integrator.integrate_pct",
    "extract": "knowledge.extract_pct",
    "backward": "nn.backward_pct",
    "optim_step": "optim.step_pct",
    "tape_replay": "tape.replay_pct",
    "encode": "codec.encode_pct",
    "decode": "codec.decode_pct",
    "rpc_frame": "rpc.frame_pct",
    "simulate": "sim.simulate_pct",
    "evaluate": "eval.evaluate_pct",
}

SETUP_PHASES = ("interp", "import", "build", "trainer", "spawn")

#: The traced run's self times plus its unattributed time must add up to
#: its wall time within this share.
CLOSURE_TOLERANCE = 0.02

#: A training workload whose final average accuracy falls below this has
#: stopped learning (class-incremental tasks hold 2-5 classes each).
MIN_FINAL_ACCURACY = 0.2

#: The probe times ``reference_loop`` after every this many seconds of CPU
#: time a process of the repetition uses.
PROBE_INTERVAL_S = 0.05

#: Times are rescaled to a CPU on which ``reference_loop`` takes this long
#: (about the fast state of a 2-vCPU Xeon VM).
REFERENCE_S = 0.5e-3


# ----------------------------------------------------------------------
# CPU speed (README "Steadiness")
# ----------------------------------------------------------------------
def reference_loop() -> int:
    """Fixed pure-Python work: its time measures the CPU's current speed."""
    total = 0
    for i in range(10_000):
        total += i * i
    return total


def speed_factor(samples, lo: float, hi: float) -> float:
    """Mean speed relative to the reference CPU over the ``(end, seconds)``
    probe samples that ended in ``[lo, hi]`` (all samples if none did).

    Samples come at even steps of CPU time, so the mean of the speeds is the
    work done per CPU second in the window: a CPU time multiplied by it is
    the CPU time the same work takes on the reference CPU.
    """
    inside = [s for end, s in samples if lo <= end <= hi]
    return statistics.fmean(REFERENCE_S / s for s in inside or
                            [s for _, s in samples])


class SpeedProbe:
    """Times ``reference_loop`` after each ``PROBE_INTERVAL_S`` of CPU time
    used by this process and by every process forked from it (the socket
    engine's workers), appending ``(perf_counter at end, seconds)`` records
    to ``path``.  ``perf_counter`` is the system-wide monotonic clock, so
    the records of all processes share one time line."""

    RECORD = struct.Struct("dd")

    def __init__(self, path: str):
        self.path = path
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
        signal.signal(signal.SIGPROF, self._sample)
        os.register_at_fork(after_in_child=self._arm)
        self._sample()
        self._arm()

    @staticmethod
    def _arm() -> None:
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _sample(self, *_) -> None:
        begin = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        os.write(self.fd, self.RECORD.pack(end, end - begin))

    def samples(self) -> list[tuple[float, float]]:
        with open(self.path, "rb") as handle:
            return list(self.RECORD.iter_unpack(handle.read()))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        os.close(self.fd)


# ----------------------------------------------------------------------
# span folding (pure; unit-tested in test_bench_e2e.py)
# ----------------------------------------------------------------------
def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def fold_spans(spans: list[dict], window: tuple[float, float],
               main: str = "main") -> dict:
    """Fold exported span dicts into self time per span name.

    A span's self time is its duration minus the union of its same-process
    children, both clipped to ``window``.  Spans of other processes (worker
    spans stitched under a coordinator span) are never subtracted from their
    parent; each worker's busy time is the union of its spans.  Wall time
    that no top-level coordinator span covers is ``unattributed``, so the
    self times plus ``unattributed`` add up to the window.
    """
    lo, hi = window
    local = [s for s in spans if (s.get("process") or "main") == main]
    ids = {s["span_id"] for s in local}
    children: dict[str, list] = defaultdict(list)
    top = []
    for span in local:
        if span.get("parent_id") in ids:
            children[span["parent_id"]].append((span["start"], span["end"]))
        else:
            top.append((span["start"], span["end"]))
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list] = defaultdict(list)
    for span in local:
        a, b = max(span["start"], lo), min(span["end"], hi)
        if b <= a:
            continue
        self_s[span["name"]] += (b - a) - union_length(
            children[span["span_id"]], a, b
        )
        calls[span["name"]] += 1
        durations[span["name"]].append(span["end"] - span["start"])
    workers: dict[str, list] = defaultdict(list)
    for span in spans:
        process = span.get("process") or "main"
        if process != main:
            workers[process].append((span["start"], span["end"]))
    return {
        "self": dict(self_s),
        "calls": dict(calls),
        "durations": dict(durations),
        "unattributed": (hi - lo) - union_length(top, lo, hi),
        "worker_busy": {
            process: union_length(intervals, lo, hi)
            for process, intervals in workers.items()
        },
    }


def layer_metrics(fold: dict, wall: float) -> dict[str, float]:
    """Per-layer self-time shares (% of ``wall``) plus worker busy/idle.

    Span names missing from ``LAYER_SHARES`` land in
    ``obs.other_spans_pct`` so the shares always add up to 100.
    """
    out = {metric: 0.0 for metric in LAYER_SHARES.values()}
    out["obs.other_spans_pct"] = 0.0
    for name, seconds in fold["self"].items():
        metric = LAYER_SHARES.get(name, "obs.other_spans_pct")
        out[metric] += 100.0 * seconds / wall
    out["trainer.unattributed_pct"] = 100.0 * fold["unattributed"] / wall
    busy = fold["worker_busy"]
    out["engine.worker_busy_pct"] = 100.0 * sum(busy.values()) / wall
    out["engine.worker_idle_pct"] = (
        100.0 * (1.0 - sum(busy.values()) / (len(busy) * wall)) if busy else 0.0
    )
    return out


# ----------------------------------------------------------------------
# harness spans and temp-file confinement
# ----------------------------------------------------------------------
def _spanned(inner, name: str, trace_module):
    @functools.wraps(inner)
    def spanned(*args, **kwargs):
        with trace_module.TRACER.span(name):
            return inner(*args, **kwargs)

    return spanned


def install_harness_spans(trainer) -> None:
    """Open a harness span around each layer entry point of ``HARNESS_SPANS``,
    the trainer engine's ``map`` and its client class's ``receive_global``."""
    import importlib

    from repro.obs import trace

    for module_name, class_name, method, span_name in HARNESS_SPANS:
        owner = getattr(importlib.import_module(module_name), class_name)
        setattr(owner, method, _spanned(getattr(owner, method), span_name, trace))
    engine = trainer.engine
    engine.map = _spanned(engine.map, "engine_map", trace)
    client_class = type(trainer.clients[0])
    client_class.receive_global = _spanned(
        client_class.receive_global, "receive_global", trace
    )


def confine_temp_files(directory: str) -> None:
    """Send every temp file, including the engines' ``/dev/shm`` broadcast
    and probe files, into ``directory`` so a run writes only inside its
    checkout (forked workers inherit the redirect).

    The socket workload still takes the shared-file broadcast path, but on
    the checkout's filesystem rather than tmpfs, and the leak check looks
    at ``directory`` rather than ``/dev/shm``.
    """
    tempfile.tempdir = directory
    mkstemp = tempfile.mkstemp

    def confined(suffix=None, prefix=None, dir=None, text=False):
        if dir == "/dev/shm":
            dir = directory
        return mkstemp(suffix, prefix, dir, text)

    tempfile.mkstemp = confined


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def train_fingerprint(result) -> str:
    """Accuracy matrix (exact bits) plus the wire and participation totals."""
    return _digest({
        "accuracy": [float(x).hex() for x in result.accuracy_matrix.ravel()],
        "upload_bytes": result.total_upload_bytes,
        "download_bytes": result.total_download_bytes,
        "planned": result.total_planned_clients,
        "reported": result.total_reported_clients,
        "lost": result.total_lost_clients,
    })


def sim_fingerprint(report) -> str:
    return _digest({
        "events": report.events,
        "rounds": [
            [r.planned, r.reported, r.stale, r.evicted, r.lost,
             float(r.close_seconds).hex()]
            for r in report.rounds
        ],
        "staleness": {str(k): v for k, v in report.staleness_hist.items()},
        "peak_present": report.peak_present,
        "peak_inflight": report.peak_inflight,
    })


# ----------------------------------------------------------------------
# the repetition
# ----------------------------------------------------------------------
def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def _cpu_s(who) -> float:
    """User plus system CPU seconds (to the microsecond, where ``os.times``
    counts 10-ms clock ticks)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _setup_train(spec: dict, seed: int, stamp):
    import numpy as np

    from repro.data import create_scenario, get_spec
    from repro.data.scenario import ClientDataFactory
    from repro.edge import jetson_cluster
    from repro.experiments.config import get_preset
    from repro.federated.registry import create_trainer

    stamp("import")
    preset = get_preset(spec["preset"]).updated(
        num_clients=spec["clients"],
        num_tasks=spec["tasks"],
        rounds_per_task=spec["rounds"],
        iterations_per_round=spec["iterations"],
    )
    scaled = preset.apply_to_spec(get_spec(spec["dataset"]))
    scenario = create_scenario(spec["scenario"])
    benchmark = scenario.build(
        scaled, num_clients=preset.num_clients, rng=np.random.default_rng(seed)
    )
    factory = ClientDataFactory(scenario, scaled, preset.num_clients, seed)
    stamp("build")
    # the seeding of ``repro.experiments.run_single``
    trainer = create_trainer(
        spec["method"], benchmark, preset.train_config(seed=seed),
        model_seed=1000 + seed, rng=np.random.default_rng(seed + 1),
        cluster=jetson_cluster(), engine=spec["engine"],
        transport=spec["transport"], data_factory=factory,
    )
    stamp("trainer")
    trainer.engine.map(abs, [1])
    stamp("spawn")
    return trainer


def _setup_simulate(spec: dict, seed: int, stamp):
    from repro.federated import PopulationSimulator

    stamp("import")
    simulator = PopulationSimulator(
        spec["clients"], spec["population"], num_rounds=spec["rounds"],
        shards=spec["shards"], max_staleness=spec["max_staleness"], seed=seed,
    )
    stamp("build")
    return simulator


def _train_outputs(spec: dict, trainer, result) -> dict:
    import numpy as np

    matrix = result.accuracy_matrix
    wire = result.total_upload_bytes + result.total_download_bytes
    stats = [getattr(c, "integration_stats", None) for c in trainer.clients]
    stats = [s for s in stats if s]
    checks = {
        "accuracy_matrix_complete": matrix.shape == (spec["tasks"], spec["tasks"])
        and bool(np.isfinite(matrix[np.tril_indices(spec["tasks"])]).all()),
        "accuracy_learned": result.final_accuracy >= MIN_FINAL_ACCURACY,
        "no_skipped_rounds": not any(r.skipped for r in result.rounds),
        "wire_bytes_expected": wire == spec["wire_bytes"],
    }
    return {
        "fingerprint": train_fingerprint(result),
        "attempted": result.total_planned_clients,
        "failed": result.total_lost_clients,
        "final_accuracy": result.final_accuracy,
        "wire_bytes": wire,
        "upload_bytes": result.total_upload_bytes,
        "download_bytes": result.total_download_bytes,
        "integrations": sum(s["integrations"] for s in stats),
        "rotations": sum(s["rotations"] for s in stats),
        "checks": checks,
    }


def _sim_outputs(spec: dict, report) -> dict:
    checks = {
        "all_rounds_ran": len(report.rounds) == spec["rounds"],
        "clients_scheduled": report.scheduled > 0 and report.events > 0,
    }
    return {
        "fingerprint": sim_fingerprint(report),
        "attempted": len(report.rounds),
        "failed": 0,
        "events": report.events,
        "scheduled": report.scheduled,
        "checks": checks,
    }


def _traced_layers(out: dict, session, spans, window) -> None:
    fold = fold_spans(spans, window)
    wall = window[1] - window[0]
    accounted = sum(fold["self"].values()) + fold["unattributed"]
    counters = session.metrics_snapshot()["counters"]
    rpc = [s for s in spans
           if s["name"] == "rpc_frame" and (s.get("process") or "main") == "main"]
    hits = counters.get("broadcast.cache_hits", 0)
    decodes = counters.get("broadcast.decodes", 0)
    integrations = out.get("integrations", 0)
    setup = out["setup"]
    layers = layer_metrics(fold, wall)
    layers.update({
        f"setup.{phase}_pct": 100.0 * setup[phase] / setup["total"]
        for phase in SETUP_PHASES
    })
    layers.update({
        "nn.backward_calls": fold["calls"].get("backward", 0),
        "restorer.calls": fold["calls"].get("restore", 0),
        "integrator.integrations": integrations,
        "integrator.rotated_pct": 100.0 * out.get("rotations", 0) / integrations
        if integrations else 0.0,
        "tape.replays": counters.get("tape.replays", 0),
        "aggregate.updates": sum(
            s.get("attrs", {}).get("updates", 0)
            for s in spans if s["name"] == "aggregate"
        ),
        "codec.encoded_mb": counters.get("codec.encoded_bytes", 0) / 1e6,
        "codec.decoded_mb": counters.get("codec.decoded_bytes", 0) / 1e6,
        "broadcast.cache_hit_pct": 100.0 * hits / (hits + decodes)
        if hits + decodes else 0.0,
        "rpc.frames": len(rpc),
        "rpc.mb": sum(s.get("attrs", {}).get("bytes", 0) for s in rpc) / 1e6,
        "wire.upload_mb": out.get("upload_bytes", 0) / 1e6,
        "wire.download_mb": out.get("download_bytes", 0) / 1e6,
        "sim.events": out.get("events", 0),
        "engine.worker_peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
        "obs.spans": len(spans),
        "host.cpu_slowdown": 1.0 / out["speed"]["run"],
        "run.wall_s": wall,
    })
    out["checks"]["self_times_add_up"] = (
        abs(accounted - wall) <= CLOSURE_TOLERANCE * wall
    )
    out["layers"] = layers
    out["spans"] = {
        name: {
            "self_s": fold["self"][name],
            "calls": fold["calls"][name],
            "durations_s": sorted(fold["durations"][name]),
        }
        for name in fold["self"]
    }
    out["unattributed_s"] = fold["unattributed"]
    out["worker_busy_s"] = fold["worker_busy"]


def run(request: dict, started: float, probe: SpeedProbe) -> dict:
    spec = request["spec"]
    seed = request["seed"]
    traced = request["traced"]
    confine_temp_files(request["tmp"])
    setup = dict.fromkeys(SETUP_PHASES, 0.0)
    setup["interp"] = started - request["spawned_at"]
    last = [started]

    def stamp(phase: str) -> None:
        now = time.time()
        setup[phase] = now - last[0]
        last[0] = now

    simulate = spec["kind"] == "simulate"
    target = (_setup_simulate if simulate else _setup_train)(spec, seed, stamp)
    setup["total"] = last[0] - request["spawned_at"]
    setup_done = time.perf_counter()
    trainer = None if simulate else target
    session = None
    if traced:
        from repro.obs import Telemetry

        if trainer is not None:
            install_harness_spans(trainer)
        session = Telemetry()
    clock = session.tracer.clock_offset if session else 0.0
    try:
        cpu_begin = _cpu_s(resource.RUSAGE_SELF)
        begin = time.perf_counter()
        result = target.run()
        end = time.perf_counter()
        cpu_end = _cpu_s(resource.RUSAGE_SELF)
    finally:
        if session is not None:
            session.close()
        if trainer is not None:
            trainer.close()
    # the workers have been joined: their whole CPU time counts to the run
    workers = _cpu_s(resource.RUSAGE_CHILDREN)
    probe.stop()
    samples = probe.samples()
    import numpy

    out = _sim_outputs(spec, result) if simulate else _train_outputs(
        spec, trainer, result
    )
    out.update({
        "setup": setup,
        "run_wall_s": end - begin,
        "speed": {
            "setup": speed_factor(samples, -math.inf, setup_done),
            "run": speed_factor(samples, begin, end),
            "samples": len(samples),
        },
        "cpu": {"setup": cpu_begin, "run": cpu_end - cpu_begin + workers},
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "traced": traced,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__},
    })
    out["checks"]["no_live_children"] = not multiprocessing.active_children()
    out["checks"]["no_temp_files_left"] = not os.listdir(request["tmp"])
    if session is not None:
        _traced_layers(out, session, session.spans(),
                       (begin + clock, end + clock))
    return out


if __name__ == "__main__":
    _started = time.time()
    _request = json.loads(sys.argv[1])
    print(json.dumps(run(_request, _started, SpeedProbe(_request["probe"]))))
