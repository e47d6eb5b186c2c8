"""Tests for servers, method clients, and the simulation trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import FedKnowClient
from repro.core.config import FedKnowConfig
from repro.data import cifar100_like, build_benchmark
from repro.edge import (
    DeviceProfile,
    EdgeCluster,
    ModelCostModel,
    jetson_cluster,
)
from repro.federated import (
    ALL_METHODS,
    MERGE_SEGMENTS,
    APFLClient,
    ClientUpdate,
    FedAvgServer,
    FedRepClient,
    FedVBServer,
    FedWeitClient,
    FedWeitServer,
    FLCNServer,
    SGDClient,
    StreamingAccumulator,
    TrainConfig,
    create_trainer,
    shard_slices,
)
from repro.models import build_model


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=1,
                       iterations_per_round=3)


def model_factory(spec):
    def factory():
        return build_model(
            spec.model_name, spec.num_classes, input_shape=spec.input_shape,
            rng=np.random.default_rng(5), width=8,
        )

    return factory


def float64_updates(n, rng):
    """Float64 uploads with mixed sample counts and an int64 key: a float32
    cast would hide the order of a large round's sum."""
    return [
        ClientUpdate(
            client_id=i,
            state={"w": rng.normal(size=(300,)),
                   "steps": np.array(100 + i, dtype=np.int64)},
            num_samples=int(rng.integers(1, 100)),
        )
        for i in range(n)
    ]


def merge_tree_oracle(updates, staleness_discount=0.5):
    """The server's sum order, written out: each ``shard_slices`` segment
    of at most ``MERGE_SEGMENTS`` sums its ``(w_i / total) * v_i`` terms
    from zeros in float64, and the segment sums fold left to right.  With
    up to ``MERGE_SEGMENTS`` uploads every segment holds one term, so this
    is the plain sequential sum."""
    weights = [update.effective_weight(staleness_discount)
               for update in updates]
    total = float(sum(weights))
    terms = [
        (weight / total) * update.state["w"]
        for weight, update in zip(weights, updates)
    ]
    folded = None
    for segment in shard_slices(len(terms), MERGE_SEGMENTS):
        partial = np.zeros_like(terms[0])
        for term in terms[segment]:
            partial += term
        folded = partial if folded is None else folded + partial
    return folded, terms


class TestFedAvgServer:
    def test_weighted_mean(self):
        server = FedAvgServer()
        states = [{"w": np.array([0.0])}, {"w": np.array([3.0])}]
        out = server.aggregate(states, weights=[1, 2])
        assert out["w"][0] == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FedAvgServer().aggregate([], [])

    def test_mismatched_weights_raise(self):
        with pytest.raises(ValueError):
            FedAvgServer().aggregate([{"w": np.zeros(1)}], [1, 2])

    def test_inconsistent_keys_raise(self):
        with pytest.raises(ValueError):
            FedAvgServer().aggregate(
                [{"a": np.zeros(1)}, {"b": np.zeros(1)}], [1, 1]
            )

    def test_zero_weight_sum_raises(self):
        with pytest.raises(ValueError):
            FedAvgServer().aggregate([{"w": np.zeros(1)}], [0])

    def test_round_counter(self):
        server = FedAvgServer()
        server.aggregate([{"w": np.zeros(1)}], [1])
        server.aggregate([{"w": np.zeros(1)}], [1])
        assert server.round_index == 2

    def test_integer_buffers_not_truncated(self):
        """Regression: float->int casting truncated averaged BN counters."""
        server = FedAvgServer()
        states = [
            {"w": np.array([1.0], np.float32),
             "bn.num_batches_tracked": np.array(9, dtype=np.int64)},
            {"w": np.array([3.0], np.float32),
             "bn.num_batches_tracked": np.array(10, dtype=np.int64)},
        ]
        out = server.aggregate(states, weights=[1, 1])
        assert out["w"][0] == pytest.approx(2.0)
        # integer keys keep the first client's value, not int(mean) = 9 by cast
        assert out["bn.num_batches_tracked"] == 9
        assert out["bn.num_batches_tracked"].dtype == np.int64

    def test_streaming_matches_stacked_mean(self, rng):
        """The running-sum accumulator reproduces the weighted mean exactly."""
        server = FedAvgServer()
        states = [
            {"w": rng.normal(size=(4, 3)).astype(np.float32)} for _ in range(7)
        ]
        weights = rng.integers(1, 20, size=7).tolist()
        out = server.aggregate(states, weights)
        coeffs = np.asarray(weights, np.float64) / sum(weights)
        expected = np.tensordot(
            coeffs, np.stack([s["w"].astype(np.float64) for s in states]), axes=1
        ).astype(np.float32)
        assert np.array_equal(out["w"], expected)

    def test_sparse_uploads_match_dense(self, rng):
        """Sparse-delta and encoded-bytes uploads aggregate like dense ones."""
        from repro.utils.serialization import encode_state, sparse_delta_state

        base = {"w": rng.normal(size=(6, 4)).astype(np.float32),
                "steps": np.array(4, dtype=np.int64)}
        dense_server = FedAvgServer()
        sparse_server = FedAvgServer()
        for server in (dense_server, sparse_server):
            server.aggregate([base], [1])  # establish the global state
        clients = []
        for _ in range(3):
            state = {"w": base["w"].copy(), "steps": base["steps"].copy()}
            state["w"][rng.integers(6), rng.integers(4)] += rng.normal()
            clients.append(state)
        dense_out = dense_server.aggregate(clients, [2, 1, 1])
        uploads = [
            clients[0],  # plain mapping
            sparse_delta_state(clients[1], base, ratio=0.10),  # sparse records
            encode_state(sparse_delta_state(clients[2], base, ratio=0.10)),
        ]
        sparse_out = sparse_server.aggregate(uploads, [2, 1, 1])
        assert set(dense_out) == set(sparse_out)
        # delta extraction rounds once in float32, so allow 1-ulp slack
        assert np.allclose(dense_out["w"], sparse_out["w"], atol=1e-6)
        assert dense_out["steps"] == sparse_out["steps"]

    @pytest.mark.parametrize("server_cls", [FedAvgServer, FedVBServer])
    def test_v2_sparse_bytes_aggregate_like_decoded_dict(self, server_cls):
        """Raw v2 bytes decode against the server's global state: absolute
        sparse records overwrite it rather than being added as deltas."""
        from repro.utils.serialization import (
            WIRE_V2, decode_state, encode_state, sparse_topk_state,
        )

        base = {"w": np.full((3, 4), 9.0, np.float32),
                "steps": np.array(4, dtype=np.int64)}
        client = {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
                  "steps": np.array(5, dtype=np.int64)}
        payload = encode_state(sparse_topk_state(client, 0.25), WIRE_V2)
        outs = []
        for decode_first in (False, True):
            server = server_cls()
            server.aggregate([base], [1])  # establish the global state
            upload = (decode_state(payload, base=server.global_state)
                      if decode_first else payload)
            outs.append(server.aggregate([upload], [1]))
        via_bytes, via_dict = outs
        assert set(via_bytes) == set(via_dict)
        for key in via_dict:
            assert np.array_equal(via_bytes[key], via_dict[key])
        expected = base["w"].copy()
        expected.reshape(-1)[-3:] = [9.0, 10.0, 11.0]
        assert np.array_equal(via_bytes["w"], expected)

    def test_sparse_upload_shape_mismatch_raises(self):
        from repro.utils.serialization import SparseTensor

        server = FedAvgServer()
        server.aggregate([{"w": np.zeros((2, 2), np.float32)}], [1])
        bad = {"w": SparseTensor(np.zeros(1, np.int32),
                                 np.ones(1, np.float32), (3,))}
        with pytest.raises(ValueError):
            server.aggregate([bad], [1])

    # 6 uploads take the sequential sum, 150 the merge tree
    @pytest.mark.parametrize("n", [6, 150])
    def test_bytes_uploads_match_mappings(self, rng, n):
        from repro.utils.serialization import encode_state

        states = [
            {"w": rng.normal(size=(100,)).astype(np.float32),
             "steps": np.array(100 + i, dtype=np.int64)}
            for i in range(n)
        ]
        weights = rng.integers(10, 100, size=n).tolist()
        plain = FedAvgServer().aggregate(states, weights)
        encoded = FedAvgServer().aggregate(
            [encode_state(state) for state in states], weights
        )
        assert set(plain) == set(encoded)
        for key in plain:
            assert np.array_equal(plain[key], encoded[key])

    @pytest.mark.parametrize("n", [6, 150])
    def test_sparse_uploads_match_densified_mappings(self, rng, n):
        """Every segment of a large round densifies sparse deltas against
        the global state, as the sequential sum does."""
        from repro.utils.serialization import sparse_topk

        base = {"w": rng.normal(size=(400,)).astype(np.float32)}
        deltas = [
            sparse_topk(rng.normal(scale=0.1, size=(400,)).astype(np.float32),
                        40)
            for _ in range(n)
        ]
        weights = rng.integers(1, 100, size=n).tolist()
        outs = []
        for uploads in (
            [{"w": delta} for delta in deltas],
            [{"w": delta.to_dense() + base["w"]} for delta in deltas],
        ):
            server = FedAvgServer()
            server.aggregate([base], [1])  # establish the global state
            outs.append(server.aggregate(uploads, weights))
        sparse, dense = outs
        assert np.array_equal(sparse["w"], dense["w"])
        assert not np.array_equal(sparse["w"], base["w"])

    @pytest.mark.parametrize(
        "n", [1, 5, 16, MERGE_SEGMENTS, MERGE_SEGMENTS + 1, 128]
    )
    def test_sum_follows_the_merge_tree_at_every_round_size(self, rng, n):
        updates = float64_updates(n, rng)
        updates[-1].staleness = 2
        out = FedAvgServer().aggregate_updates(updates, staleness_discount=0.25)
        folded, _ = merge_tree_oracle(updates, staleness_discount=0.25)
        assert np.array_equal(out["w"], folded)

    def test_large_round_sums_segment_by_segment(self, rng):
        """Past ``MERGE_SEGMENTS`` uploads each ``shard_slices`` segment
        sums from zeros and the segment sums fold left to right."""
        updates = float64_updates(150, rng)
        updates[7].staleness = 1
        out = FedAvgServer().aggregate_updates(updates, staleness_discount=0.25)
        folded, terms = merge_tree_oracle(updates, staleness_discount=0.25)
        assert np.array_equal(out["w"], folded)
        sequential = np.zeros(300)
        for term in terms:
            sequential += term
        # the data tells the two orders apart, so the case pins the tree
        assert not np.array_equal(folded, sequential)

    def test_large_round_keeps_the_first_clients_integer_keys(self, rng):
        out = FedAvgServer().aggregate_updates(float64_updates(150, rng))
        assert out["steps"] == 100
        assert out["steps"].dtype == np.int64

    def test_large_round_segment_with_other_keys_raises(self, rng):
        updates = float64_updates(MERGE_SEGMENTS + 1, rng)
        # alone in the last segment, so the fold meets the mismatch
        updates[-1].state = {"v": updates[-1].state["w"]}
        with pytest.raises(ValueError, match="inconsistent"):
            FedAvgServer().aggregate_updates(updates)


class TestStreamingAccumulator:
    def test_fold_in_adds_partial_sums_and_counts(self):
        left, right = StreamingAccumulator(), StreamingAccumulator()
        left.add({"w": np.array([1.0, 2.0]),
                  "steps": np.array(3, dtype=np.int64)}, 0.5)
        right.add({"w": np.array([4.0, 8.0]),
                   "steps": np.array(7, dtype=np.int64)}, 0.25)
        right.add({"w": np.array([0.0, 4.0]),
                   "steps": np.array(9, dtype=np.int64)}, 0.25)
        left.fold_in(right)
        assert left.count == 3
        out = left.finalize()
        assert np.array_equal(out["w"], [1.5, 4.0])
        # the left segment holds the round's first client
        assert out["steps"] == 3

    def test_fold_in_rejects_empty_accumulator(self):
        left = StreamingAccumulator()
        left.add({"w": np.ones(2)}, 1.0)
        with pytest.raises(ValueError, match="empty accumulator"):
            left.fold_in(StreamingAccumulator())

    def test_fold_into_empty_accumulator_rejected(self):
        right = StreamingAccumulator()
        right.add({"w": np.ones(2)}, 1.0)
        with pytest.raises(ValueError, match="first segment"):
            StreamingAccumulator().fold_in(right)

    def test_finalize_without_uploads_raises(self):
        with pytest.raises(ValueError, match="no client states"):
            StreamingAccumulator().finalize()


class TestFLCNServer:
    def test_buffer_accumulates_and_bounds(self, tiny_spec, rng):
        model = model_factory(tiny_spec)()
        server = FLCNServer(model, max_buffer=20, rng=rng)
        mask = np.zeros(tiny_spec.num_classes, dtype=bool)
        mask[:3] = True
        for _ in range(5):
            server.receive_samples(
                np.zeros((8, *tiny_spec.input_shape), dtype=np.float32),
                np.zeros(8, dtype=np.int64),
                mask,
            )
        assert server.buffer_size <= server.max_buffer

    def test_oversize_contribution_truncated(self, tiny_spec, rng):
        """Regression: one contribution above the cap stuck permanently."""
        model = model_factory(tiny_spec)()
        server = FLCNServer(model, max_buffer=20, rng=rng)
        mask = np.zeros(tiny_spec.num_classes, dtype=bool)
        mask[:3] = True
        server.receive_samples(
            np.zeros((64, *tiny_spec.input_shape), dtype=np.float32),
            np.zeros(64, dtype=np.int64),
            mask,
        )
        assert server.buffer_size == 20
        # a later small contribution evicts the truncated chunk as usual
        server.receive_samples(
            np.zeros((8, *tiny_spec.input_shape), dtype=np.float32),
            np.zeros(8, dtype=np.int64),
            mask,
        )
        assert server.buffer_size <= 20

    def test_aggregate_finetunes_on_buffer(self, tiny_benchmark, rng):
        spec = tiny_benchmark.spec
        model = model_factory(spec)()
        server = FLCNServer(model, finetune_steps=2, rng=rng)
        task = tiny_benchmark.clients[0].tasks[0]
        server.receive_samples(task.train_x, task.train_y, task.class_mask())
        state = model.state_dict()
        out = server.aggregate([state], [1])
        # fine-tuning must have changed the weights
        changed = any(
            not np.allclose(out[k], state[k]) for k in state
        )
        assert changed


class TestSGDClientLifecycle:
    def test_begin_task_bounds(self, tiny_benchmark, tiny_model, config):
        client = SGDClient(0, tiny_benchmark.clients[0], tiny_model, config)
        with pytest.raises(IndexError):
            client.begin_task(99)

    def test_train_before_begin_raises(self, tiny_benchmark, tiny_model, config):
        client = SGDClient(0, tiny_benchmark.clients[0], tiny_model, config)
        with pytest.raises(RuntimeError):
            client.local_train(1)

    def test_training_reduces_loss(self, tiny_benchmark, tiny_model, config):
        client = SGDClient(0, tiny_benchmark.clients[0], tiny_model, config)
        client.begin_task(0)
        first = client.local_train(8)
        second = client.local_train(8)
        assert second["mean_loss"] < first["mean_loss"] * 1.2

    def test_compute_units_tracked(self, tiny_benchmark, tiny_model, config):
        client = SGDClient(0, tiny_benchmark.clients[0], tiny_model, config)
        client.begin_task(0)
        client.local_train(5)
        assert client.take_compute_units() == 5.0
        assert client.take_compute_units() == 0.0

    def test_evaluate_lengths(self, tiny_benchmark, tiny_model, config):
        client = SGDClient(0, tiny_benchmark.clients[0], tiny_model, config)
        client.begin_task(1)
        accs = client.evaluate()
        assert len(accs) == 2
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_lr_schedule_decays(self, tiny_benchmark, tiny_model, config):
        client = SGDClient(0, tiny_benchmark.clients[0], tiny_model, config)
        client.begin_task(0)
        client.local_train(3)
        assert client.optimizer.lr < config.lr


class TestAPFL:
    def test_alpha_adapts_within_bounds(self, tiny_benchmark, config):
        spec = tiny_benchmark.spec
        factory = model_factory(spec)
        client = APFLClient(
            0, tiny_benchmark.clients[0], factory(), config,
            model_factory=factory, rng=np.random.default_rng(0),
        )
        client.begin_task(0)
        client.local_train(4)
        assert 0.05 <= client.alpha <= 0.95

    def test_personal_model_diverges_from_shared(self, tiny_benchmark, config):
        spec = tiny_benchmark.spec
        factory = model_factory(spec)
        client = APFLClient(
            0, tiny_benchmark.clients[0], factory(), config,
            model_factory=factory, rng=np.random.default_rng(0),
        )
        client.begin_task(0)
        client.local_train(4)
        shared = client.model.state_dict()
        personal = client.personal.state_dict()
        assert any(not np.allclose(shared[k], personal[k]) for k in shared)

    def test_evaluate_uses_mixture(self, tiny_benchmark, config):
        spec = tiny_benchmark.spec
        factory = model_factory(spec)
        client = APFLClient(
            0, tiny_benchmark.clients[0], factory(), config,
            model_factory=factory, rng=np.random.default_rng(0),
        )
        client.begin_task(0)
        client.local_train(2)
        accs = client.evaluate()
        assert len(accs) == 1


class TestFedRep:
    def test_upload_excludes_head(self, tiny_benchmark, config):
        spec = tiny_benchmark.spec
        client = FedRepClient(
            0, tiny_benchmark.clients[0], model_factory(spec)(), config,
            rng=np.random.default_rng(0),
        )
        uploaded = client.upload_state()
        assert not any(k.startswith("classifier") for k in uploaded)
        assert uploaded  # body keys present

    def test_receive_preserves_personal_head(self, tiny_benchmark, config):
        spec = tiny_benchmark.spec
        client = FedRepClient(
            0, tiny_benchmark.clients[0], model_factory(spec)(), config,
            rng=np.random.default_rng(0),
        )
        head_before = client.model.classifier.weight.data.copy()
        global_state = {
            k: v + 1.0 for k, v in client.upload_state().items()
        }
        client.receive_global(global_state, 0)
        assert np.allclose(client.model.classifier.weight.data, head_before)
        assert not np.allclose(
            client.model.features[0].weight.data,
            global_state[
                [k for k in global_state if k.startswith("features.0")][0]
            ] - 1.0,
        )

    def test_invalid_head_fraction(self, tiny_benchmark, config):
        spec = tiny_benchmark.spec
        with pytest.raises(ValueError):
            FedRepClient(
                0, tiny_benchmark.clients[0], model_factory(spec)(), config,
                head_fraction=0.0,
            )


class TestFedWeit:
    @pytest.fixture
    def weit(self, tiny_benchmark, config):
        spec = tiny_benchmark.spec
        server = FedWeitServer()
        clients = [
            FedWeitClient(
                i, tiny_benchmark.clients[i], model_factory(spec)(), config,
                server=server, rng=np.random.default_rng(i),
            )
            for i in range(2)
        ]
        return server, clients

    def test_adaptive_created_per_task(self, weit):
        server, clients = weit
        client = clients[0]
        client.begin_task(0)
        assert len(client.adaptives) == 1
        client.local_train(2)
        client.end_task()
        client.begin_task(1)
        assert len(client.adaptives) == 2

    def test_server_registry_grows(self, weit):
        server, clients = weit
        for client in clients:
            client.begin_task(0)
            client.local_train(2)
            client.end_task()
        assert len(server.adaptive_registry) == 2
        assert server.registry_bytes() >= 0

    def test_foreign_adaptives_downloaded_on_new_task(self, weit):
        server, clients = weit
        for client in clients:
            client.begin_task(0)
            client.local_train(2)
            client.end_task()
        clients[0].begin_task(1)
        assert len(clients[0].foreign) == 1  # the other client's adaptive

    def test_upload_bytes_exceed_plain_model(self, weit, tiny_benchmark, config):
        """The adaptive side-channel rides on top of the base payload."""
        server, clients = weit
        client = clients[0]
        client.begin_task(0)
        client.local_train(3)
        from repro.federated import create_transport
        from repro.utils.serialization import state_num_bytes

        channel = create_transport("v1:dense").channel_for(client.client_id)
        payload = client.prepare_upload(channel)
        base_only = state_num_bytes(client.upload_state())
        total = payload.num_bytes + client.extra_upload_bytes()
        assert total >= base_only
        assert client.extra_upload_bytes() >= 0

    def test_per_task_evaluation_restores_composition(self, weit):
        server, clients = weit
        client = clients[0]
        client.begin_task(0)
        client.local_train(2)
        client.end_task()
        client.begin_task(1)
        client.local_train(2)
        accs = client.evaluate()
        assert len(accs) == 2

    def test_state_bytes_grow_with_tasks(self, weit):
        server, clients = weit
        client = clients[0]
        client.begin_task(0)
        client.local_train(3)
        client.end_task()
        first = client.extra_state_bytes()["model"]
        client.begin_task(1)
        client.local_train(3)
        client.end_task()
        assert client.extra_state_bytes()["model"] >= first


class TestFedKnowClient:
    @pytest.fixture
    def fedknow(self, tiny_benchmark, config):
        spec = tiny_benchmark.spec
        factory = model_factory(spec)
        return FedKnowClient(
            0, tiny_benchmark.clients[0], factory(), config,
            model_factory=factory,
            fedknow=FedKnowConfig(
                knowledge_ratio=0.2, num_signature_gradients=2,
                extraction_finetune_iterations=0,
                aggregation_finetune_batches=2,
            ),
            rng=np.random.default_rng(0),
        )

    def test_knowledge_stored_per_task(self, fedknow):
        for position in range(2):
            fedknow.begin_task(position)
            fedknow.local_train(3)
            fedknow.end_task()
        assert len(fedknow.store) == 2
        assert fedknow.extra_state_bytes()["model"] > 0

    def test_integration_engages_on_second_task(self, fedknow):
        fedknow.begin_task(0)
        fedknow.local_train(3)
        fedknow.end_task()
        fedknow.begin_task(1)
        fedknow.local_train(4)
        assert fedknow.integration_stats["integrations"] > 0

    def test_receive_global_finetunes(self, fedknow):
        fedknow.begin_task(0)
        fedknow.local_train(3)
        state = {k: v * 0.5 for k, v in fedknow.model.state_dict().items()}
        before = fedknow.model.state_dict()
        fedknow.receive_global(state, 0)
        after = fedknow.model.state_dict()
        # fine-tuning moved the model off the plain aggregated state
        assert any(not np.allclose(after[k], state[k]) for k in state)

    def test_receive_global_plain_when_disabled(self, tiny_benchmark, config):
        spec = tiny_benchmark.spec
        factory = model_factory(spec)
        client = FedKnowClient(
            0, tiny_benchmark.clients[0], factory(), config,
            model_factory=factory,
            fedknow=FedKnowConfig(aggregation_integration=False),
            rng=np.random.default_rng(0),
        )
        client.begin_task(0)
        client.local_train(2)
        state = {k: v * 0.5 for k, v in client.model.state_dict().items()}
        client.receive_global(state, 0)
        after = client.model.state_dict()
        assert all(np.allclose(after[k], state[k]) for k in state)


class TestTrainerAndRegistry:
    def test_all_methods_constructible(self, tiny_spec, config):
        bench = build_benchmark(
            tiny_spec, num_clients=2, rng=np.random.default_rng(0)
        )
        for method in ALL_METHODS:
            trainer = create_trainer(method, bench, config, with_cost_model=False)
            assert trainer.method_name == method

    def test_unknown_method_raises(self, tiny_spec, config):
        bench = build_benchmark(
            tiny_spec, num_clients=2, rng=np.random.default_rng(0)
        )
        with pytest.raises(KeyError):
            create_trainer("fedprox", bench, config)

    def test_run_produces_complete_result(self, tiny_spec, config):
        bench = build_benchmark(
            tiny_spec, num_clients=2, rng=np.random.default_rng(0)
        )
        trainer = create_trainer(
            "fedavg", bench, config, cluster=jetson_cluster()
        )
        result = trainer.run()
        assert result.accuracy_matrix.shape == (2, 2)
        assert len(result.rounds) == 2  # 2 tasks x 1 round
        assert result.total_comm_bytes > 0
        assert result.sim_total_seconds > 0
        assert not np.isnan(result.accuracy_matrix[1, 0])

    def test_identical_initial_weights_across_methods(self, tiny_spec, config):
        bench = build_benchmark(
            tiny_spec, num_clients=2, rng=np.random.default_rng(0)
        )
        a = create_trainer("fedavg", bench, config, with_cost_model=False)
        b = create_trainer("gem", bench, config, with_cost_model=False)
        state_a = a.clients[0].model.state_dict()
        state_b = b.clients[0].model.state_dict()
        assert all(np.array_equal(state_a[k], state_b[k]) for k in state_a)

    def test_oom_client_drops_out(self, tiny_spec, config):
        """A device whose memory cannot hold the method state must drop out."""
        bench = build_benchmark(
            tiny_spec, num_clients=2, rng=np.random.default_rng(0)
        )
        tiny_device = DeviceProfile("toy", 1e9, memory_bytes=1)
        big_device = DeviceProfile("big", 1e12, memory_bytes=10**12)
        cluster = EdgeCluster([tiny_device, big_device])
        trainer = create_trainer("fedavg", bench, config, cluster=cluster)
        result = trainer.run()
        assert all(r.active_clients == 1 for r in result.rounds)

    def test_all_oom_raises(self, tiny_spec, config):
        bench = build_benchmark(
            tiny_spec, num_clients=2, rng=np.random.default_rng(0)
        )
        tiny_device = DeviceProfile("toy", 1e9, memory_bytes=1)
        cluster = EdgeCluster([tiny_device])
        trainer = create_trainer("fedavg", bench, config, cluster=cluster)
        with pytest.raises(RuntimeError):
            trainer.run()

    def test_flcn_reports_sample_upload(self, tiny_spec, config):
        bench = build_benchmark(
            tiny_spec, num_clients=2, rng=np.random.default_rng(0)
        )
        trainer = create_trainer("flcn", bench, config, with_cost_model=False)
        client = trainer.clients[0]
        client.begin_task(0)
        first = client.upload_sample_bytes()
        assert first > 0
        assert client.upload_sample_bytes() == 0  # only reported once
