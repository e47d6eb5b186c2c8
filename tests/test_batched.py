"""Tests for batched multi-client execution and shared-base broadcasting.

Mirrors :mod:`tests.test_sharding`'s execution matrix for the batched
engine's contracts:

* **bit-identity** — a ``batched`` (or chunked ``batched:B``) run produces
  the same accuracy matrix, global state and round accounting as the
  serial reference, across participation policies, scenario families and
  momentum;
* **one capture per chunk leader** — each chunk replays the tape its
  leader's live model captured on its first step as a leader;
* **balanced chunks** — a round runs in the fewest chunks of at most
  ``B`` clients (8 without ``batched:B``) whose sizes differ by at most
  one;
* **batch safety** — methods whose local step is not a pure
  loss→backward→SGD update are rejected up front, both by the trainer and
  by the registry-derived ``BATCH_SAFE_METHODS``;
* **shared base handles** — delta/sparse transports on the socket engine
  broadcast one shared base snapshot per round instead of pickling a dense
  base copy into every worker's phase payload, without changing any bytes
  trained or shipped.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data import ClientDataFactory, cifar100_like, create_scenario
from repro.edge import jetson_cluster
from repro.federated import (
    BATCH_SAFE_METHODS,
    TrainConfig,
    create_trainer,
    create_transport,
)
from repro.federated import batched
from repro.federated.batched import train_chunk
from repro.serve import SocketRoundEngine


@pytest.fixture
def spec():
    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=2,
                       iterations_per_round=3)


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The size of every chunk ``train_chunk`` runs, in call order."""
    sizes = []
    real = batched.train_chunk

    def spy(clients, iterations):
        sizes.append(len(clients))
        real(clients, iterations)

    monkeypatch.setattr(batched, "train_chunk", spy)
    return sizes


def states_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def run_matrix_config(
    spec,
    config,
    method="fedavg",
    engine="serial",
    participation=None,
    scenario="class-inc",
    transport=None,
    num_clients=4,
    data_factory=False,
):
    """Fresh benchmark + trainer per run so every config starts identical."""
    scenario_obj = create_scenario(scenario)
    bench = scenario_obj.build(
        spec, num_clients=num_clients, rng=np.random.default_rng(0)
    )
    factory = (
        ClientDataFactory(scenario_obj, spec, num_clients, 0)
        if data_factory
        else None
    )
    with create_trainer(
        method, bench, config, cluster=jetson_cluster(), engine=engine,
        participation=participation, transport=transport, data_factory=factory,
    ) as trainer:
        result = trainer.run()
        state = {k: v.copy() for k, v in trainer.server.global_state.items()}
    return result, state


def assert_runs_identical(reference, other):
    ref_result, ref_state = reference
    out_result, out_state = other
    assert np.array_equal(
        ref_result.accuracy_matrix, out_result.accuracy_matrix, equal_nan=True
    )
    assert states_equal(ref_state, out_state)
    assert len(ref_result.rounds) == len(out_result.rounds)
    for a, b in zip(ref_result.rounds, out_result.rounds):
        assert a.upload_bytes == b.upload_bytes
        assert a.download_bytes == b.download_bytes
        assert a.sim_train_seconds == b.sim_train_seconds
        assert a.reported_clients == b.reported_clients
        assert a.stale_clients == b.stale_clients
        assert a.mean_loss == b.mean_loss or (
            np.isnan(a.mean_loss) and np.isnan(b.mean_loss)
        )
        assert a.skipped == b.skipped


# ----------------------------------------------------------------------
# execution bit-identity matrix
# ----------------------------------------------------------------------
class TestBatchedBitIdentity:
    @pytest.mark.parametrize("engine", ["batched", "batched:2", "batched:3"])
    def test_fedavg_class_inc_full(self, spec, config, engine):
        reference = run_matrix_config(spec, config)
        other = run_matrix_config(spec, config, engine=engine)
        assert_runs_identical(reference, other)

    def test_momentum_matches_serial(self, spec):
        config = TrainConfig(batch_size=8, lr=0.02, momentum=0.9,
                             rounds_per_task=2, iterations_per_round=3)
        reference = run_matrix_config(spec, config)
        other = run_matrix_config(spec, config, engine="batched")
        assert_runs_identical(reference, other)

    def test_sampled_participation_matches_serial(self, spec, config):
        reference = run_matrix_config(
            spec, config, participation="sampled:0.5", num_clients=6
        )
        other = run_matrix_config(
            spec, config, participation="sampled:0.5", num_clients=6,
            engine="batched:4",
        )
        assert_runs_identical(reference, other)

    @pytest.mark.parametrize("scenario", [
        "label-shift:dirichlet:0.5",
        "blurry:overlap=0.3",
    ])
    def test_scenario_families(self, spec, config, scenario):
        reference = run_matrix_config(spec, config, scenario=scenario)
        other = run_matrix_config(
            spec, config, scenario=scenario, engine="batched"
        )
        assert_runs_identical(reference, other)

    def test_uneven_default_chunks_match_serial(
        self, spec, config, monkeypatch, chunk_sizes
    ):
        # a default cap of three splits five clients 3 + 2
        monkeypatch.setattr(batched, "DEFAULT_CHUNK_CLIENTS", 3)
        reference = run_matrix_config(spec, config, num_clients=5)
        other = run_matrix_config(spec, config, num_clients=5,
                                  engine="batched")
        assert chunk_sizes == [3, 2] * 4  # 2 tasks x 2 rounds
        assert_runs_identical(reference, other)

    def test_deadline_policy_matches_serial(self, spec, config):
        reference = run_matrix_config(
            spec, config, participation="deadline:6.1", num_clients=6
        )
        assert reference[0].total_stale_clients > 0
        other = run_matrix_config(
            spec, config, participation="deadline:6.1", num_clients=6,
            engine="batched",
        )
        assert_runs_identical(reference, other)

    def test_delta_transport_matches_serial(self, spec, config):
        reference = run_matrix_config(
            spec, config, transport="v2:delta:0.2"
        )
        other = run_matrix_config(
            spec, config, transport="v2:delta:0.2", engine="batched"
        )
        assert_runs_identical(reference, other)


# ----------------------------------------------------------------------
# tape capture
# ----------------------------------------------------------------------
class TestLeaderTapes:
    @pytest.mark.parametrize("engine,tapes", [
        ("batched:2", [1, 0, 1, 0]),
        ("batched", [1, 0, 0, 0]),
    ])
    def test_one_capture_per_chunk_leader(self, spec, config, engine, tapes):
        """Each chunk replays a tape captured once on its leader's live
        model, across every round and task; a capture per call would pass
        every bit-identity test and only cost time."""
        bench = create_scenario("class-inc").build(
            spec, num_clients=4, rng=np.random.default_rng(0)
        )
        with create_trainer("fedavg", bench, config, engine=engine) as trainer:
            result = trainer.run()
            assert len(result.rounds) == 4  # 2 tasks x 2 rounds
            assert [len(c.model._tapes) for c in trainer.clients] == tapes


# ----------------------------------------------------------------------
# chunk sizes
# ----------------------------------------------------------------------
class TestChunks:
    @pytest.mark.parametrize("engine,num_clients,sizes", [
        ("batched", 16, [8, 8]),
        ("batched", 20, [7, 7, 6]),
        ("batched", 5, [5]),
        ("batched:3", 7, [3, 2, 2]),
        ("batched:3", 6, [3, 3]),
        ("batched:8", 5, [5]),
    ])
    def test_fewest_balanced_chunks_within_the_cap(
        self, chunk_sizes, engine, num_clients, sizes
    ):
        spec = cifar100_like(train_per_class=8, test_per_class=4,
                             input_shape=(3, 8, 8)).with_tasks(2)
        bench = create_scenario("class-inc").build(
            spec, num_clients=num_clients, rng=np.random.default_rng(0)
        )
        config = TrainConfig(batch_size=1, lr=0.02, rounds_per_task=1,
                             iterations_per_round=1)
        with create_trainer("fedavg", bench, config, engine=engine) as trainer:
            trainer.run_task(0)
        assert chunk_sizes == sizes


# ----------------------------------------------------------------------
# batch safety
# ----------------------------------------------------------------------
class TestBatchSafety:
    def test_only_pure_sgd_methods_are_batch_safe(self):
        assert BATCH_SAFE_METHODS == ("fedavg",)

    @pytest.mark.parametrize("method", ["gem", "ewc", "fedknow", "apfl"])
    def test_trainer_rejects_batch_unsafe_methods(self, spec, config, method):
        bench = create_scenario("class-inc").build(
            spec, num_clients=2, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="batched"):
            create_trainer(method, bench, config, engine="batched")

    def test_heterogeneous_optimizers_rejected(self, spec, config):
        bench = create_scenario("class-inc").build(
            spec, num_clients=2, rng=np.random.default_rng(0)
        )
        trainer = create_trainer("fedavg", bench, config, engine="batched")
        try:
            for client in trainer.clients:
                client.begin_task(0)
            trainer.clients[1].optimizer.momentum = 0.9
            with pytest.raises(ValueError, match="homogeneous"):
                train_chunk(trainer.clients, 1)
        finally:
            trainer.close()


# ----------------------------------------------------------------------
# shared base handles (delta/sparse transports on the socket engine)
# ----------------------------------------------------------------------
class TestSharedBaseHandles:
    def test_delta_over_process_matches_serial(self, spec, config):
        reference = run_matrix_config(
            spec, config, transport="v2:delta:0.2"
        )
        other = run_matrix_config(
            spec, config, transport="v2:delta:0.2", engine="socket:2",
            data_factory=True,
        )
        assert_runs_identical(reference, other)

    def test_channel_pickles_handle_not_base(self):
        state = {"w": np.zeros((50_000,), np.float32)}
        transport = create_transport("v2:delta:0.1")
        channel = transport.channel_for(0)
        engine = SocketRoundEngine(max_workers=1)
        try:
            channel.deliver(state, base=dict(state))
            with_dict = len(pickle.dumps(channel))
            handle = engine.share_state(dict(state))
            channel.deliver(state, base=handle)
            with_handle = len(pickle.dumps(channel))
            # the handle ships a path + token instead of the dense arrays
            assert with_handle < 2_000 < with_dict
            # and resolves back to the same base on either side
            assert states_equal(channel.base, state)
        finally:
            handle.release()
            engine.close()

    def test_handle_release_is_idempotent(self):
        engine = SocketRoundEngine(max_workers=1)
        try:
            handle = engine.share_state({"w": np.ones(4, np.float32)})
            assert states_equal(handle.resolve(), {"w": np.ones(4, np.float32)})
            handle.release()
            handle.release()
        finally:
            engine.close()

    def test_trainer_releases_handles_on_close(self, spec, config):
        scenario_obj = create_scenario("class-inc")
        bench = scenario_obj.build(
            spec, num_clients=3, rng=np.random.default_rng(0)
        )
        trainer = create_trainer(
            "fedavg", bench, config, engine="socket:2",
            transport="v2:delta:0.2",
            data_factory=ClientDataFactory(scenario_obj, spec, 3, 0),
        )
        trainer.run_task(0)
        handles = list(trainer._base_handles)
        assert handles, "delta transport over socket should share its base"
        trainer.close()
        import os

        assert all(not os.path.exists(h.path) for h in handles)
