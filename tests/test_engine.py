"""Tests for the round engines: API, and parallel == serial reproducibility."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_benchmark, cifar100_like
from repro.edge import jetson_cluster
from repro.federated import (
    ENGINES,
    BatchedRoundEngine,
    FedAvgServer,
    SerialRoundEngine,
    ShardedAggregator,
    ThreadedRoundEngine,
    TrainConfig,
    create_engine,
    create_trainer,
)


@pytest.fixture
def spec():
    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=2,
                       iterations_per_round=3)


class TestEngineApi:
    def test_registry(self):
        assert set(ENGINES) == {"serial", "thread", "batched"}
        assert isinstance(create_engine("serial"), SerialRoundEngine)
        assert isinstance(create_engine("thread"), ThreadedRoundEngine)
        assert isinstance(create_engine("batched"), BatchedRoundEngine)
        assert create_engine("batched:4").batch_clients == 4

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown round engine"):
            create_engine("quantum")

    def test_process_spec_is_gone(self):
        # socket[:W] is the one out-of-process engine; no alias remains
        with pytest.raises(ValueError, match="known: .*'socket'"):
            create_engine("process:2")

    def test_worker_count_specs(self):
        thread = create_engine("thread:3")
        assert thread.max_workers == 3

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            create_engine("serial:2")
        with pytest.raises(ValueError):
            create_engine("thread:x")
        with pytest.raises(ValueError):
            create_engine("socket:0")

    def test_instance_passthrough(self):
        engine = ThreadedRoundEngine(max_workers=2)
        assert create_engine(engine) is engine
        engine.close()

    def test_thread_map_preserves_order(self):
        engine = ThreadedRoundEngine(max_workers=4)
        try:
            assert engine.map(lambda x: x * x, range(16)) == [
                x * x for x in range(16)
            ]
        finally:
            engine.close()

    def test_close_idempotent(self):
        engine = ThreadedRoundEngine()
        engine.map(lambda x: x, [1, 2])
        engine.close()
        engine.close()


class TestEngineContract:
    """The hooks ``RoundEngine`` declares, with their in-process defaults."""

    def test_serial_defaults(self):
        engine = SerialRoundEngine()
        assert engine.rejects("flcn") is None
        assert engine.collect_clients() == []
        aggregator = engine.sharded_aggregator(FedAvgServer(), 2)
        assert type(aggregator) is ShardedAggregator
        assert aggregator.engine is None

    def test_thread_engine_accumulates_shards_on_its_pool(self):
        engine = ThreadedRoundEngine(max_workers=2)
        assert engine.sharded_aggregator(FedAvgServer(), 3).engine is engine
        engine.close()

    def test_batched_engine_rejects_batch_unsafe_methods(self):
        engine = BatchedRoundEngine()
        assert engine.rejects("fedavg") is None
        assert "batch-safe methods: fedavg" in engine.rejects("fedknow")


def run_with_engine(spec, config, method, engine):
    """A fresh benchmark + trainer per run so both engines start identically."""
    bench = build_benchmark(spec, num_clients=3, rng=np.random.default_rng(0))
    trainer = create_trainer(
        method, bench, config, cluster=jetson_cluster(), engine=engine
    )
    result = trainer.run()
    trainer.engine.close()
    return result


class TestParallelReproducibility:
    @pytest.mark.parametrize(
        "method", ["fedavg", "fedknow", "fedweit", "flcn"]
    )
    def test_thread_engine_matches_serial_exactly(self, spec, config, method):
        serial = run_with_engine(spec, config, method, "serial")
        threaded = run_with_engine(spec, config, method, "thread")
        assert np.array_equal(
            serial.accuracy_matrix, threaded.accuracy_matrix, equal_nan=True
        )
        assert len(serial.rounds) == len(threaded.rounds)
        for a, b in zip(serial.rounds, threaded.rounds):
            assert a.position == b.position
            assert a.round_index == b.round_index
            assert a.upload_bytes == b.upload_bytes
            assert a.download_bytes == b.download_bytes
            assert a.sim_train_seconds == b.sim_train_seconds
            assert a.sim_comm_seconds == b.sim_comm_seconds
            assert a.active_clients == b.active_clients
            assert a.mean_loss == b.mean_loss  # bit-identical losses
