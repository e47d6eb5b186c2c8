"""Micro-benchmarks of FedKNOW's hot components.

These are true pytest-benchmark measurements (multiple rounds): the per-
iteration costs that determine on-device training time — one training step,
a knowledge extraction, a gradient restoration, and the integrator QP.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import GradientIntegrator, GradientRestorer, KnowledgeExtractor
from repro.curv import FisherSelector
from repro.core.qp import solve_nnqp_active_set, solve_nnqp_projected_gradient
from repro.data import build_benchmark, cifar100_like, create_scenario
from repro.federated import (
    ClientUpdate,
    FedAvgServer,
    ShardedAggregator,
    TrainConfig,
    create_trainer,
)
from repro.federated.batched import capture_client_tape, train_chunk
from repro.models import build_model
from repro.nn import SGD, Tensor
from repro.nn import functional as F


@pytest.fixture(scope="module")
def setting():
    spec = cifar100_like(train_per_class=16, test_per_class=4).with_tasks(2)
    bench = build_benchmark(spec, num_clients=1, rng=np.random.default_rng(0))
    task = bench.clients[0].tasks[0]
    model = build_model(spec.model_name, spec.num_classes,
                        rng=np.random.default_rng(0))
    scratch = build_model(spec.model_name, spec.num_classes,
                          rng=np.random.default_rng(0))
    return spec, task, model, scratch


def test_training_step(benchmark, setting):
    _, task, model, _ = setting
    optimizer = SGD(model.parameters(), lr=0.01)
    mask = task.class_mask()
    xb, yb = task.train_x[:16], task.train_y[:16]

    def step():
        optimizer.zero_grad()
        F.cross_entropy(model(Tensor(xb)), yb, class_mask=mask).backward()
        optimizer.step()

    benchmark(step)


def test_knowledge_extraction(benchmark, setting):
    _, task, model, _ = setting
    extractor = KnowledgeExtractor(ratio=0.10)
    knowledge = benchmark(lambda: extractor.extract(model, task))
    assert knowledge.num_retained() > 0


def test_fisher_select_64c(benchmark, setting):
    """Fisher-scored signature extraction on a 64-sample curvature estimate,
    gated at <= 2x the magnitude extraction (best-of-5 each side).  The
    Fisher diagonal rides the batched tape replay (two chunk-64 replays),
    so its scoring overhead must stay a fraction of the extraction's
    pruned-finetune cost rather than multiplying it."""
    _, task, model, scratch = setting
    magnitude = KnowledgeExtractor(ratio=0.10, finetune_iterations=20)
    fisher = KnowledgeExtractor(
        ratio=0.10, finetune_iterations=20,
        selector=FisherSelector(max_samples=64, chunk=64),
    )

    def magnitude_extract():
        return magnitude.extract(model, task, scratch=scratch,
                                 rng=np.random.default_rng(0))

    def fisher_extract():
        return fisher.extract(model, task, scratch=scratch,
                              rng=np.random.default_rng(0))

    magnitude_extract(), fisher_extract()  # warm both paths
    fisher_best = min(_seconds(fisher_extract) for _ in range(5))
    magnitude_best = min(_seconds(magnitude_extract) for _ in range(5))
    knowledge = benchmark(fisher_extract)
    assert knowledge.num_retained() > 0
    assert fisher_best <= 2.0 * magnitude_best, (
        f"fisher selection {fisher_best:.4f}s > 2x magnitude selection "
        f"{magnitude_best:.4f}s"
    )


def test_gradient_restoration(benchmark, setting):
    _, task, model, scratch = setting
    knowledge = KnowledgeExtractor(ratio=0.10).extract(model, task)
    restorer = GradientRestorer(scratch)
    xb = task.train_x[:16]
    grad = benchmark(lambda: restorer.restore_gradient(model, knowledge, xb))
    assert np.isfinite(grad).all()


def test_integrator_with_ten_constraints(benchmark, setting):
    _, _, model, _ = setting
    rng = np.random.default_rng(1)
    dim = model.num_parameters()
    gradient = rng.normal(size=dim)
    constraints = rng.normal(size=(10, dim))
    integrator = GradientIntegrator()
    result = benchmark(lambda: integrator.integrate(gradient, constraints))
    assert result.gradient.shape == (dim,)


@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_scenario_construction_64_clients(benchmark, mode):
    """Benchmark construction at population scale: lazy streams vs the
    eager clients x tasks grid.  The lazy path is the startup win the
    scenario API exists for — it should sit orders of magnitude below
    eager."""
    spec = cifar100_like(train_per_class=8, test_per_class=2).with_tasks(4)
    scenario = create_scenario("class-inc")

    def construct():
        return scenario.build(
            spec, num_clients=64, rng=np.random.default_rng(0),
            eager=(mode == "eager"),
        )

    bench = benchmark(construct)
    assert bench.num_clients == 64
    expected = spec.num_tasks if mode == "eager" else 0
    assert bench.clients[0].tasks.num_materialized == expected


def _population_updates(num_clients: int) -> list[ClientUpdate]:
    """Model-state-shaped uploads for aggregation-scale benchmarks."""
    rng = np.random.default_rng(0)
    return [
        ClientUpdate(
            client_id=i,
            state={
                "features.weight": rng.normal(size=(64, 64, 3, 3)).astype(np.float32),
                "classifier.weight": rng.normal(size=(100, 256)).astype(np.float32),
                "bn.steps": np.array(100, dtype=np.int64),
            },
            num_samples=int(rng.integers(10, 100)),
        )
        for i in range(num_clients)
    ]


def test_sharded_merge_64_clients(benchmark):
    """Shard-partitioned aggregation of a 64-client round (8 shards) —
    the server-side hot path of large-population rounds.  Must stay
    bit-identical to the unsharded server (asserted every run)."""
    updates = _population_updates(64)
    reference = FedAvgServer().aggregate_updates(updates)
    out = benchmark(
        lambda: ShardedAggregator(FedAvgServer(), 8).aggregate_updates(updates)
    )
    assert all(np.array_equal(reference[k], out[k]) for k in reference)


def _round_work(seed: int) -> float:
    """Picklable stand-in for one client's round work (numpy-bound)."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(96, 96))
    return float(np.linalg.norm(matrix @ matrix.T))


@pytest.fixture(scope="module")
def socket_engine():
    from repro.serve import SocketRoundEngine

    engine = SocketRoundEngine(max_workers=2)
    engine.map(_round_work, range(8))  # spawn + handshake once
    yield engine
    engine.close()


def test_socket_round_8c(benchmark, socket_engine):
    """An 8-item round dispatched through the socket engine — times the
    pickle/framing overhead the GIL-free engine pays per round."""
    results = benchmark(
        lambda: socket_engine.map(_round_work, range(8))
    )
    assert len(results) == 8


@pytest.fixture(scope="module")
def round_64c():
    """Two 64-client fedavg populations (serial reference + batched) on a
    dispatch-bound workload: small inputs and minibatches make python
    autograd dispatch — not BLAS — the round's dominant cost, which is the
    regime the captured-tape engine exists for."""
    spec = cifar100_like(
        train_per_class=4, test_per_class=2, input_shape=(3, 8, 8)
    ).with_tasks(1)
    scenario = create_scenario("class-inc")
    config = TrainConfig(batch_size=1, lr=0.01, rounds_per_task=1,
                         iterations_per_round=8, seed=0)

    def build(engine):
        bench = scenario.build(spec, num_clients=64,
                               rng=np.random.default_rng(0))
        trainer = create_trainer("fedavg", bench, config,
                                 with_cost_model=False, engine=engine)
        for client in trainer.clients:
            client.begin_task(0)
        return trainer

    serial, batched = build("serial"), build("batched")
    tape, order = capture_client_tape(batched.clients[0])
    train_chunk(batched.clients, 1, tape, order)  # warm the replay path
    yield serial, batched, tape, order
    serial.close()
    batched.close()


def test_replayed_step(benchmark, round_64c):
    """One captured-graph replay + flat SGD step for a single client — the
    tape-engine counterpart of ``test_training_step``'s dynamic step."""
    _, batched, tape, order = round_64c
    client = batched.clients[0]
    benchmark(lambda: train_chunk([client], 1, tape, order))


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_batched_round_64c(benchmark, round_64c):
    """A full 64-client, 8-iteration local-training round: one batched
    captured-tape replay vs the serial client loop.  Asserts the batched
    engine's acceptance bar — >= 4x fewer wall-clock seconds than serial
    (best-of-3 on each side; the FLOPs are identical, so the win is
    amortized dispatch)."""
    serial, batched, tape, order = round_64c
    iterations = serial.config.iterations_per_round

    def serial_round():
        for client in serial.clients:
            client.local_train(iterations)

    def batched_round():
        train_chunk(batched.clients, iterations, tape, order)

    serial_round()  # warm-up
    serial_best = min(_seconds(serial_round) for _ in range(3))
    batched_best = min(_seconds(batched_round) for _ in range(3))
    benchmark(batched_round)
    assert serial_best / batched_best >= 4.0, (
        f"batched round speedup {serial_best / batched_best:.2f}x < 4x "
        f"(serial {serial_best:.3f}s, batched {batched_best:.3f}s)"
    )


def test_telemetry_overhead_64c(benchmark, round_64c):
    """Telemetry cost contract on the batched 64-client round: the
    instrumented-but-disabled path stays within 1.05x of the plain round
    (a closed session must leave no residual cost), and an enabled session
    — spans plus per-op replay timing — costs at most 1.3x (best-of-7 on
    the compared sides to keep scheduler noise under the 1.05 margin)."""
    from repro.obs import Telemetry

    _, batched, tape, order = round_64c
    iterations = batched.config.iterations_per_round

    def batched_round():
        train_chunk(batched.clients, iterations, tape, order)

    batched_round()  # warm-up
    plain_best = min(_seconds(batched_round) for _ in range(7))
    with Telemetry():
        batched_round()  # warm the traced path
        enabled_best = min(_seconds(batched_round) for _ in range(5))
    disabled_best = min(_seconds(batched_round) for _ in range(7))
    benchmark(batched_round)
    assert disabled_best <= 1.05 * plain_best, (
        f"disabled telemetry {disabled_best:.4f}s > 1.05x plain round "
        f"{plain_best:.4f}s"
    )
    assert enabled_best <= 1.3 * disabled_best, (
        f"enabled telemetry {enabled_best:.4f}s > 1.3x disabled round "
        f"{disabled_best:.4f}s"
    )


def test_eventsim_100k(benchmark):
    """Event-driven serving of a 100k-client fixed population for five
    overlapping rounds — the scheduling hot path of the population
    simulator.  Asserts the subsystem's acceptance bar: >= 10^4 simulated
    clients per wall-clock second (measured ~10^5 on CI-class hardware)."""
    from repro.federated import PopulationSimulator

    def serve():
        return PopulationSimulator(
            100_000, population="fixed", num_rounds=5, shards=16,
            max_staleness=2, seed=0,
        ).run()

    report = benchmark.pedantic(serve, rounds=2, iterations=1)
    assert report.scheduled >= 100_000
    assert report.clients_per_second >= 10_000, (
        f"event simulator scheduled {report.clients_per_second:.0f} "
        f"clients/s < 10^4"
    )


@pytest.mark.parametrize("solver", [solve_nnqp_active_set,
                                    solve_nnqp_projected_gradient])
def test_nnqp_solver(benchmark, solver):
    rng = np.random.default_rng(2)
    g = rng.normal(size=(10, 64))
    p = g @ g.T
    q = rng.normal(size=10)
    v = benchmark(lambda: solver(p, q))
    assert (v >= -1e-9).all()
