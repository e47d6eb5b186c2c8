#!/usr/bin/env python3
"""Regression gate for the codec and aggregator hot paths.

``pytest benchmarks/`` measures; this script *gates*: it times the wire
codec (encode / decode / top-k sparsification) and the streaming FedAvg
aggregator on a model-sized state dict, normalizes each timing by a
machine-calibration workload (so the recorded baselines transfer across CI
runners of different speeds), and fails when any hot path regresses more
than ``THRESHOLD`` x against ``baselines.json``.  Run as a script, it pins
the BLAS thread pools to one thread (``BLAS_PIN``) before numpy loads.

Usage::

    python benchmarks/gate.py            # check against recorded baselines
    python benchmarks/gate.py --record   # re-record baselines (after a
                                         # deliberate perf change, commit the
                                         # updated baselines.json)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from unittest import mock

#: BLAS thread pools size themselves when numpy loads, so a gate run pins
#: them to one thread before that, as ``benchmarks/e2e`` pins its runs.
#: Unpinned, the gate's BLAS threads contend with any other busy process:
#: beside a running e2e benchmark on a 2-vCPU host ``fisher_select_64c``
#: read 3.3x its baseline, against 0.6-0.9x on a quiet host.
BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
if __name__ == "__main__":
    os.environ.update(BLAS_PIN)

import numpy as np

from repro.data import cifar100_like, create_scenario
from repro.federated import (
    ClientUpdate,
    FedAvgServer,
    TrainConfig,
    create_trainer,
)
from repro.federated.batched import train_chunk
from repro.federated.simulation import PopulationSimulator
from repro.nn.graph import GraphTape
from repro.obs import Telemetry
from repro.serve import SocketRoundEngine
from repro.utils.serialization import (
    WIRE_V2,
    decode_state,
    encode_state,
    sparse_delta_state,
    sparse_topk,
)

BASELINE_PATH = Path(__file__).resolve().parent / "baselines.json"

#: A hot path may be at most this many times slower than its baseline ratio.
THRESHOLD = 1.5

#: Ratio-valued cases: already dimensionless (not divided by the
#: calibration unit) and held to an absolute bound instead of the
#: baseline-relative THRESHOLD.
ABSOLUTE_BOUNDS = {
    # tracing + per-op timing enabled vs disabled, on the batched round
    "telemetry_overhead_64c": 1.3,
    # instrumented-but-disabled vs the same round with the replay's
    # telemetry guard removed: telemetry must be no-op-cheap when off
    "telemetry_disabled_64c": 1.05,
}


def _bare_traced(self, kind, body, **attrs):
    """``GraphTape._traced`` without its counter bump and tracer check."""
    return body()


def best_seconds(fn, repeats: int = 7, min_seconds: float = 0.1) -> float:
    """Best per-call time over ``repeats`` batches (timeit's methodology)."""
    # size each batch to run for at least min_seconds
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            break
        calls *= 4
    best = elapsed / calls
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


#: Interleaved pairs behind each telemetry case.  On a shared 2-vCPU host,
#: with the other CPU busy, one pair's CPU-time ratio of two rounds that
#: differ by nothing but noise read 0.69-1.27; medians of 9 pairs read
#: 0.92-1.06 and medians of 21 read 0.95-1.04 (12 trials each case).  At
#: 21 a 5% bound holds on noise, and a 10% cost on the replay path (a 7-10%
#: slower round) still fails it.
TELEMETRY_PAIRS = 21


def cpu_seconds(fn) -> float:
    """CPU seconds of one ``fn()`` call, all of the process's threads."""
    start = time.process_time()
    fn()
    return time.process_time() - start


def median_cpu_ratio(numerator, denominator, pairs: int = TELEMETRY_PAIRS):
    """Median CPU-time ratio ``numerator() / denominator()`` over
    interleaved pairs, the side that runs first alternating, so host drift
    and warm caches favour neither.  Returns ``(median, per-pair ratios)``.

    CPU time leaves out the time the process waits for a CPU, which is
    most of the wall-clock jitter of a shared host."""
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            below = cpu_seconds(denominator)
            above = cpu_seconds(numerator)
        else:
            above = cpu_seconds(numerator)
            below = cpu_seconds(denominator)
        ratios.append(above / below)
    return float(np.median(ratios)), ratios


def calibration_seconds() -> float:
    """Time a fixed numpy workload proportional to this machine's speed.

    Mixes a large array copy (the codec is memory-bound) with float64
    multiply-accumulate (the aggregator's inner loop), so hot-path /
    calibration ratios stay comparable across differently-sized runners.
    """
    rng = np.random.default_rng(0)
    array = rng.normal(size=2**20).astype(np.float32)
    accum = np.zeros(2**20, dtype=np.float64)

    def workload():
        copied = array.copy()
        np.add(accum, 0.25 * copied.astype(np.float64), out=accum)

    return best_seconds(workload)


def model_state() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    state = {
        f"features.{i}.weight": rng.normal(size=(64, 64, 3, 3)).astype(np.float32)
        for i in range(4)
    }
    state["classifier.weight"] = rng.normal(size=(100, 256)).astype(np.float32)
    state["bn.num_batches_tracked"] = np.array(100, dtype=np.int64)
    return state


def _gate_round_work(seed: int) -> float:
    """Picklable stand-in for one client's round work (numpy-bound)."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(96, 96))
    return float(np.linalg.norm(matrix @ matrix.T))


def _local_round_cases() -> dict[str, float]:
    """Local-training rounds: the serial client loop vs one batched
    captured-tape replay (64 clients, dispatch-bound workload), plus a
    single-client replay step.  The serial case is recorded alongside the
    batched one so baselines.json documents the engine's speedup ratio."""
    spec = cifar100_like(
        train_per_class=4, test_per_class=2, input_shape=(3, 8, 8)
    ).with_tasks(1)
    config = TrainConfig(batch_size=1, lr=0.01, rounds_per_task=1,
                         iterations_per_round=8, seed=0)

    def build(engine):
        bench = create_scenario("class-inc").build(
            spec, num_clients=64, rng=np.random.default_rng(0)
        )
        trainer = create_trainer("fedavg", bench, config,
                                 with_cost_model=False, engine=engine)
        for client in trainer.clients:
            client.begin_task(0)
        return trainer

    serial, batched = build("serial"), build("batched")

    def batched_round():
        train_chunk(batched.clients, 8)

    def bare_round():
        with mock.patch.object(GraphTape, "_traced", _bare_traced):
            batched_round()

    def enabled_round():
        with Telemetry():
            batched_round()

    try:
        batched_round()  # capture the leader's tape outside the timings
        cases = {
            "serial_round_64c": best_seconds(
                lambda: [c.local_train(8) for c in serial.clients],
                repeats=3,
            ),
            "batched_round_64c": best_seconds(batched_round, repeats=7),
            "replayed_step": best_seconds(
                lambda: train_chunk(batched.clients[:1], 1)
            ),
        }
        # telemetry cost contract, measured on the same warm round: an
        # enabled session (spans + per-op timing) vs the disabled path,
        # and the disabled path vs a truly uninstrumented one, with every
        # replay's counter-and-tracer guard patched down to a bare body()
        cases["telemetry_overhead_64c"], _ = median_cpu_ratio(
            enabled_round, batched_round
        )
        cases["telemetry_disabled_64c"], _ = median_cpu_ratio(
            batched_round, bare_round
        )
        return cases
    finally:
        serial.close()
        batched.close()


def _selector_cases() -> dict[str, float]:
    """Signature-knowledge selection: magnitude vs Fisher-scored extraction
    (64-sample diagonal-Fisher estimate, hence "64c").  The magnitude case
    is recorded alongside the Fisher one so baselines.json documents the
    scoring-overhead ratio the ``fisher_select_64c`` bench asserts stays
    <= 2x."""
    from repro.core import KnowledgeExtractor
    from repro.curv import FisherSelector
    from repro.data import build_benchmark
    from repro.models import build_model

    spec = cifar100_like(train_per_class=16, test_per_class=4).with_tasks(2)
    bench = build_benchmark(spec, num_clients=1, rng=np.random.default_rng(0))
    task = bench.clients[0].tasks[0]
    model = build_model(spec.model_name, spec.num_classes,
                        rng=np.random.default_rng(0))
    scratch = build_model(spec.model_name, spec.num_classes,
                          rng=np.random.default_rng(0))
    magnitude = KnowledgeExtractor(ratio=0.10, finetune_iterations=20)
    fisher = KnowledgeExtractor(
        ratio=0.10, finetune_iterations=20,
        selector=FisherSelector(max_samples=64, chunk=64),
    )
    return {
        "magnitude_select_64c": best_seconds(
            lambda: magnitude.extract(model, task, scratch=scratch,
                                      rng=np.random.default_rng(0)),
            repeats=3,
        ),
        "fisher_select_64c": best_seconds(
            lambda: fisher.extract(model, task, scratch=scratch,
                                   rng=np.random.default_rng(0)),
            repeats=3,
        ),
    }


def hot_path_cases() -> dict[str, float]:
    """Measure each gated hot path; returns name -> best seconds."""
    state = model_state()
    scenario_spec = cifar100_like(train_per_class=8, test_per_class=2)
    payload = encode_state(state)
    dense = state["features.0.weight"]
    rng = np.random.default_rng(2)
    client_states = [
        {k: v + np.float32(rng.normal(scale=0.01))
         if np.issubdtype(v.dtype, np.floating) else v
         for k, v in state.items()}
        for _ in range(16)
    ]
    updates = [
        ClientUpdate(client_id=i, state=s, num_samples=int(w))
        for i, (s, w) in enumerate(
            zip(client_states, rng.integers(10, 100, size=16))
        )
    ]
    base = {
        k: v + np.float32(0.001) if np.issubdtype(v.dtype, np.floating) else v
        for k, v in state.items()
    }
    delta_entries = sparse_delta_state(state, base, ratio=0.10)
    delta_keys = {
        k for k, v in delta_entries.items() if not isinstance(v, np.ndarray)
    }
    payload_v2 = encode_state(state, WIRE_V2)
    payload_delta = encode_state(delta_entries, WIRE_V2, delta_keys)
    socket_engine = SocketRoundEngine(max_workers=2)
    try:
        socket_engine.map(_gate_round_work, range(8))  # spawn + handshake
        socket_round_8c = best_seconds(
            lambda: socket_engine.map(_gate_round_work, range(8))
        )
    finally:
        socket_engine.close()
    return {
        "encode_state": best_seconds(lambda: encode_state(state)),
        "decode_state": best_seconds(lambda: decode_state(payload)),
        "encode_state_v2": best_seconds(lambda: encode_state(state, WIRE_V2)),
        "decode_state_v2": best_seconds(lambda: decode_state(payload_v2)),
        # top-k selection is gated separately (sparse_topk); this case
        # times only the v2 delta encoder on precomputed entries
        "encode_delta_v2": best_seconds(
            lambda: encode_state(delta_entries, WIRE_V2, delta_keys)
        ),
        "decode_delta_v2": best_seconds(
            lambda: decode_state(payload_delta, base=base)
        ),
        "sparse_topk": best_seconds(lambda: sparse_topk(dense, dense.size // 10)),
        "aggregate_16_clients": best_seconds(
            lambda: FedAvgServer().aggregate_updates(updates)
        ),
        # dispatch + pickle/framing overhead of one small socket-engine
        # round (workers are warm; measures the per-round tax, not spawn)
        "socket_round_8c": socket_round_8c,
        # lazy scenario construction must stay O(clients): the 64-client
        # stream build may not silently start materializing task arrays
        "scenario_stream_64c": best_seconds(
            lambda: create_scenario("class-inc").build(
                scenario_spec, num_clients=64, rng=np.random.default_rng(0)
            )
        ),
        # event-driven population serving: 20k fixed clients through three
        # overlapping rounds — gates the simulator's scheduling throughput
        # on long stretches of uploads, which it applies as numpy blocks
        # (bench_micro asserts the absolute >= 10^4 clients/s bar)
        "eventsim_20k": best_seconds(
            lambda: PopulationSimulator(
                20_000, population="fixed", num_rounds=3, shards=16,
                max_staleness=2, seed=0,
            ).run(),
            repeats=3,
        ),
        # the same loop under heavy churn: returns and departures split the
        # uploads into short stretches, so this times the per-event path
        "eventsim_churn_20k": best_seconds(
            lambda: PopulationSimulator(
                20_000, population="fixed,churn=2/1", num_rounds=4,
                shards=16, max_staleness=2, seed=0,
            ).run(),
            repeats=3,
        ),
        # signature-knowledge selection: magnitude vs Fisher-scored
        # extraction — gates the curvature scorer's tape-replay overhead
        **_selector_cases(),
        # the client-side hot path: one 64-client local-training round on
        # the serial loop vs the batched captured-tape engine (the batched
        # baseline must stay well under serial_round_64c / 4)
        **_local_round_cases(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="write baselines.json instead of checking")
    args = parser.parse_args(argv)

    unit = calibration_seconds()
    ratios = {
        name: seconds if name in ABSOLUTE_BOUNDS else seconds / unit
        for name, seconds in hot_path_cases().items()
    }

    if args.record:
        BASELINE_PATH.write_text(json.dumps(
            {"unit": "hot-path seconds / calibration seconds "
                     "(absolute-bound cases: measured ratio)",
             "threshold": THRESHOLD,
             "absolute_bounds": ABSOLUTE_BOUNDS,
             "ratios": {k: round(v, 3) for k, v in ratios.items()}},
            indent=1,
        ) + "\n")
        print(f"recorded {len(ratios)} baselines to {BASELINE_PATH}")
        return 0

    baselines = json.loads(BASELINE_PATH.read_text())["ratios"]
    failed = []
    print(f"{'hot path':<24}{'baseline':>10}{'now':>10}{'x':>8}")
    for name, ratio in ratios.items():
        bound = ABSOLUTE_BOUNDS.get(name)
        if bound is not None:
            # dimensionless case: gated against its absolute bound, not a
            # machine-relative baseline
            print(f"{name:<24}{bound:>10.3f}{ratio:>10.3f}"
                  f"{ratio / bound:>8.2f}")
            if ratio > bound:
                failed.append(name)
            continue
        base = baselines.get(name)
        factor = ratio / base if base else float("nan")
        print(f"{name:<24}{base or float('nan'):>10.3f}{ratio:>10.3f}"
              f"{factor:>8.2f}")
        if base is None or factor > THRESHOLD:
            failed.append(name)
    if failed:
        print(f"\nFAIL: {', '.join(failed)} regressed past their bounds; "
              f"if intentional, rerun with --record and commit "
              f"baselines.json")
        return 1
    print("\nall hot paths within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
