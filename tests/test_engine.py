"""Tests for the round engines' catalogue and the hooks they declare, and
for the methods that run on the serial engine only."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import build_benchmark, cifar100_like
from repro.edge import jetson_cluster
from repro.federated import (
    ENGINES,
    BatchedRoundEngine,
    SerialRoundEngine,
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
        assert set(ENGINES) == {"serial", "batched"}
        assert isinstance(create_engine("serial"), SerialRoundEngine)
        assert isinstance(create_engine("batched"), BatchedRoundEngine)
        assert create_engine("batched:4").batch_clients == 4

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown round engine"):
            create_engine("quantum")

    def test_process_spec_is_gone(self):
        # socket[:W] is the one out-of-process engine; neither a process
        # nor a thread engine remains
        for spec in ("process:2", "thread", "thread:2"):
            with pytest.raises(ValueError, match="known: .*'socket'"):
                create_engine(spec)

    def test_worker_count_specs(self):
        assert create_engine("batched:3").batch_clients == 3
        assert create_engine("batched").batch_clients is None
        # the socket engine spawns its workers at the first map, not here
        for spec, workers in (("socket:3", 3),
                              ("socket", os.cpu_count() or 1)):
            engine = create_engine(spec)
            try:
                assert engine.max_workers == workers
            finally:
                engine.close()

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            create_engine("serial:2")
        with pytest.raises(ValueError):
            create_engine("batched:x")
        with pytest.raises(ValueError):
            create_engine("socket:0")

    def test_instance_passthrough(self):
        engine = SerialRoundEngine()
        assert create_engine(engine) is engine

    @pytest.mark.parametrize("spec", ["serial", "batched"])
    def test_map_preserves_order(self, spec):
        engine = create_engine(spec)
        assert engine.map(lambda x: x * x, range(16)) == [
            x * x for x in range(16)
        ]


class TestEngineContract:
    """The hooks ``RoundEngine`` declares, with their in-process defaults."""

    def test_serial_defaults(self):
        engine = SerialRoundEngine()
        assert engine.rejects("flcn") is None
        assert engine.collect_clients() == []

    def test_batched_engine_rejects_batch_unsafe_methods(self):
        engine = BatchedRoundEngine()
        assert engine.rejects("fedavg") is None
        assert "batch-safe methods: fedavg" in engine.rejects("fedknow")


    def test_batched_map_prepares_the_whole_phase_once(self):
        calls = []

        class Phase:
            def prepare_batched(self, engine, items):
                calls.append(("prepare", list(items)))

            def __call__(self, item):
                calls.append(("item", item))
                return -item

        engine = BatchedRoundEngine()
        assert engine.map(Phase(), iter([3, 1, 2])) == [-3, -1, -2]
        assert calls == [
            ("prepare", [3, 1, 2]), ("item", 3), ("item", 1), ("item", 2),
        ]


def run_serial(spec, config, method):
    """A fresh benchmark + trainer per run, so reruns start identically."""
    bench = build_benchmark(spec, num_clients=3, rng=np.random.default_rng(0))
    with create_trainer(
        method, bench, config, cluster=jetson_cluster(), engine="serial"
    ) as trainer:
        result = trainer.run()
        state = {
            key: value.copy()
            for key, value in trainer.server.global_state.items()
        }
    return result, state


@pytest.mark.parametrize("method", ["flcn", "fedweit"])
class TestSerialOnlyMethods:
    """FLCN's and FedWEIT's clients exchange state with the live server
    mid-round, so no engine but the serial one runs them."""

    def test_other_engines_refuse(self, spec, config, method):
        bench = build_benchmark(spec, num_clients=2,
                                rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=(
            f"socket engine cannot run {method!r}: .*use the serial engine"
        )):
            create_trainer(method, bench, config, engine="socket:2")
        with pytest.raises(ValueError, match=(
            f"batched engine cannot run {method!r}: .*batch-safe methods"
        )):
            create_trainer(method, bench, config, engine="batched")

    def test_serial_rerun_is_bit_identical(self, spec, config, method):
        first_result, first_state = run_serial(spec, config, method)
        second_result, second_state = run_serial(spec, config, method)
        assert len(first_result.rounds) == 4  # 2 tasks x 2 rounds ran
        assert np.array_equal(
            first_result.accuracy_matrix, second_result.accuracy_matrix,
            equal_nan=True,
        )
        assert first_result.rounds == second_result.rounds
        assert set(first_state) == set(second_state)
        for key in first_state:
            assert np.array_equal(first_state[key], second_state[key]), key
