"""Focused tests for FedKnowClient's signature-selection and compute paths,
for its replayed gradient steps against dynamic autograd, for the local
step on one shared forward against the per-gradient path, and for a
dropout model, whose train-mode steps cannot be captured."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import knowledge as knowledge_module
from repro.core import restorer as restorer_module
from repro.core.client import FedKnowClient
from repro.core.config import FedKnowConfig
from repro.data import build_benchmark, cifar100_like
from repro.federated import TrainConfig
from repro.models import build_model
from repro.models.base import ImageClassifier
from repro.nn import graph as graph_module
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture
def four_task_benchmark():
    spec = cifar100_like(train_per_class=10, test_per_class=4).with_tasks(4)
    return build_benchmark(spec, num_clients=1, rng=np.random.default_rng(0))


def make_client(benchmark, fedknow_config):
    spec = benchmark.spec

    def factory():
        return build_model(
            spec.model_name, spec.num_classes, input_shape=spec.input_shape,
            rng=np.random.default_rng(3), width=8,
        )

    config = TrainConfig(batch_size=8, lr=0.02, rounds_per_task=1,
                         iterations_per_round=3)
    return FedKnowClient(
        0, benchmark.clients[0], factory(), config,
        model_factory=factory, fedknow=fedknow_config,
        rng=np.random.default_rng(0),
    )


class TestConfigValidation:
    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            FedKnowConfig(knowledge_ratio=0.0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            FedKnowConfig(num_signature_gradients=0)

    def test_invalid_refresh(self):
        with pytest.raises(ValueError):
            FedKnowConfig(signature_refresh=0)

    def test_updated_copies(self):
        config = FedKnowConfig()
        changed = config.updated(knowledge_ratio=0.2)
        assert changed.knowledge_ratio == 0.2
        assert config.knowledge_ratio == 0.10

    def test_paper_defaults(self):
        config = FedKnowConfig()
        assert config.knowledge_ratio == 0.10  # rho = 10 %
        assert config.num_signature_gradients == 10  # k = 10
        assert config.distance_metric == "wasserstein"


class TestSignatureSelection:
    def test_selection_engages_when_store_exceeds_k(self, four_task_benchmark):
        config = FedKnowConfig(
            num_signature_gradients=2, signature_refresh=2,
            extraction_finetune_iterations=0,
            aggregation_integration=False,
        )
        client = make_client(four_task_benchmark, config)
        for position in range(3):
            client.begin_task(position)
            client.local_train(3)
            client.end_task()
        # 3 stored tasks > k=2: selection must be active on task 4
        client.begin_task(3)
        client.local_train(3)
        assert client._signature_indices is not None
        assert len(client._signature_indices) == 2

    def test_selection_skipped_when_store_small(self, four_task_benchmark):
        config = FedKnowConfig(
            num_signature_gradients=10, extraction_finetune_iterations=0,
            aggregation_integration=False,
        )
        client = make_client(four_task_benchmark, config)
        for position in range(2):
            client.begin_task(position)
            client.local_train(2)
            client.end_task()
        client.begin_task(2)
        client.local_train(2)
        assert client._signature_indices is None  # all tasks used directly

    def test_refresh_resets_at_task_boundary(self, four_task_benchmark):
        config = FedKnowConfig(
            num_signature_gradients=2, signature_refresh=100,
            extraction_finetune_iterations=0,
            aggregation_integration=False,
        )
        client = make_client(four_task_benchmark, config)
        for position in range(4):
            client.begin_task(position)
            client.local_train(2)
            client.end_task()
            assert client._signature_indices is None  # cleared by end_task

    def test_compute_units_include_restorations(self, four_task_benchmark):
        config = FedKnowConfig(
            num_signature_gradients=2, extraction_finetune_iterations=0,
            aggregation_integration=False,
        )
        client = make_client(four_task_benchmark, config)
        client.begin_task(0)
        client.local_train(3)
        base_units = client.take_compute_units()
        assert base_units == pytest.approx(3.0)  # no knowledge yet
        client.end_task()
        client.take_compute_units()
        client.begin_task(1)
        client.local_train(3)
        with_knowledge = client.take_compute_units()
        assert with_knowledge > base_units  # restorations cost extra passes


class TestKnowledgeGrowth:
    def test_store_bytes_grow_linearly(self, four_task_benchmark):
        config = FedKnowConfig(extraction_finetune_iterations=0,
                               aggregation_integration=False)
        client = make_client(four_task_benchmark, config)
        sizes = []
        for position in range(3):
            client.begin_task(position)
            client.local_train(2)
            client.end_task()
            sizes.append(client.store.nbytes)
        growth1 = sizes[1] - sizes[0]
        growth2 = sizes[2] - sizes[1]
        assert growth1 > 0
        assert growth2 == pytest.approx(growth1, rel=0.35)

    def test_knowledge_entries_record_task_metadata(self, four_task_benchmark):
        config = FedKnowConfig(extraction_finetune_iterations=0,
                               aggregation_integration=False)
        client = make_client(four_task_benchmark, config)
        client.begin_task(0)
        client.local_train(2)
        client.end_task()
        entry = client.store[0]
        task = four_task_benchmark.clients[0].tasks[0]
        assert entry.task_id == task.task_id
        assert np.array_equal(entry.classes, task.classes)
        assert entry.ratio == config.knowledge_ratio


def _dynamic_backward(model, fn, inputs):
    """``replay_backward``'s contract computed by dynamic autograd."""
    model.zero_grad()
    out = fn(model, **{k: Tensor(v, dtype=v.dtype) for k, v in inputs.items()})
    out.backward()
    return out.data


def _dynamic_forward(model, fn, inputs):
    with no_grad():
        return fn(
            model, **{k: Tensor(v, dtype=v.dtype) for k, v in inputs.items()}
        ).data


class TestReplayedSteps:
    """Every FedKNOW gradient step replays a tape captured on the live model;
    on a BN model the client must still match dynamic autograd to the bit."""

    @staticmethod
    def _client():
        spec = cifar100_like(
            train_per_class=6, test_per_class=2, input_shape=(3, 8, 8)
        ).with_tasks(3)
        bench = build_benchmark(spec, num_clients=1,
                                rng=np.random.default_rng(0))

        def factory():
            return build_model("resnet18", spec.num_classes,
                               input_shape=spec.input_shape,
                               rng=np.random.default_rng(3), width=4)

        config = FedKnowConfig(extraction_finetune_iterations=2,
                               aggregation_finetune_batches=2)
        train = TrainConfig(batch_size=8, lr=0.05, momentum=0.9)
        client = FedKnowClient(0, bench.clients[0], factory(), train,
                               model_factory=factory, fedknow=config,
                               rng=np.random.default_rng(0))
        global_state = build_model(
            "resnet18", spec.num_classes, input_shape=spec.input_shape,
            rng=np.random.default_rng(4), width=4,
        ).state_dict()
        return client, global_state

    @staticmethod
    def _run(client, global_state) -> dict:
        record = {}
        for position in range(3):
            client.begin_task(position)
            client.local_train(3)
            xb = client.task.train_x[:8]
            record[f"gradient{position}"] = client._task_gradient(
                xb, client.task.train_y[:8]
            )
            if len(client.store):
                record[f"restored{position}"] = (
                    client.restorer.restore_gradients(
                        client.model, list(client.store), xb
                    )
                )
            client.receive_global(global_state, position)
            client.end_task()
            record[f"weights{position}"] = client.model.state_dict()
            record[f"knowledge{position}"] = client.store[position].values
        record["stats"] = dict(client.integration_stats)
        return record

    def test_resnet18_client_matches_dynamic_autograd(self, monkeypatch):
        replayed, global_state = self._client()
        got = self._run(replayed, global_state)
        assert replayed.model._tapes

        monkeypatch.setattr(knowledge_module, "replay_backward",
                            _dynamic_backward)
        monkeypatch.setattr(restorer_module, "replay_backward",
                            _dynamic_backward)
        monkeypatch.setattr(restorer_module, "replay_forward",
                            _dynamic_forward)
        dynamic, _ = self._client()
        want = self._run(dynamic, global_state)
        assert not dynamic.model._tapes

        assert got.keys() == want.keys()
        assert got["stats"] == want["stats"]
        assert got["stats"]["integrations"] > 0
        for key in got.keys() - {"stats"}:
            if isinstance(got[key], dict):
                # parameters plus BN running statistics / retained values
                assert got[key].keys() == want[key].keys()
                for name in got[key]:
                    assert np.array_equal(got[key][name], want[key][name]), (
                        key, name)
            else:
                assert np.array_equal(got[key], want[key]), key


class _TrainScaled(nn.Module):
    """Scales its input in train mode only: a buffer-free graph whose
    train- and eval-mode programs differ without refusing capture."""

    def forward(self, x):
        return x * 0.5 if self.training else x


class TestSharedStep:
    """A local step replays the live model's forward once: the task gradient
    and every restored gradient pull back through it, bit for bit the
    per-gradient path."""

    @staticmethod
    def _client():
        spec = cifar100_like(
            train_per_class=6, test_per_class=2, input_shape=(3, 8, 8)
        ).with_tasks(3)
        bench = build_benchmark(spec, num_clients=1,
                                rng=np.random.default_rng(0))

        def factory():
            return build_model("six_cnn", spec.num_classes,
                               input_shape=spec.input_shape,
                               rng=np.random.default_rng(3), width=4)

        # k = 1 < 2 retained tasks on the last task: the refresh path runs
        config = FedKnowConfig(num_signature_gradients=1, signature_refresh=2,
                               extraction_finetune_iterations=2,
                               aggregation_finetune_batches=2)
        train = TrainConfig(batch_size=8, lr=0.05, momentum=0.9)
        client = FedKnowClient(0, bench.clients[0], factory(), train,
                               model_factory=factory, fedknow=config,
                               rng=np.random.default_rng(0))
        global_state = build_model(
            "six_cnn", spec.num_classes, input_shape=spec.input_shape,
            rng=np.random.default_rng(4), width=4,
        ).state_dict()
        return client, global_state

    @staticmethod
    def _run(client, global_state) -> dict:
        record = {"restored": []}
        integrate = client.integrator.integrate

        def spy(current, constraints):
            record["restored"].append((current.copy(), constraints.copy()))
            return integrate(current, constraints)

        client.integrator.integrate = spy
        for position in range(3):
            client.begin_task(position)
            client.local_train(4)
            client.receive_global(global_state, position)
            client.end_task()
            record[f"weights{position}"] = client.model.state_dict()
            record[f"knowledge{position}"] = client.store[position].values
        record["stats"] = dict(client.integration_stats)
        return record

    def test_client_matches_the_per_gradient_path(self, monkeypatch):
        heads = []
        backward = restorer_module.LiveForward.backward

        def counted(self, op_name, *arrays):
            heads.append(op_name)
            return backward(self, op_name, *arrays)

        monkeypatch.setattr(restorer_module.LiveForward, "backward", counted)
        shared, global_state = self._client()
        got = self._run(shared, global_state)
        # a task head on each of the 12 steps; one soft-label head per
        # step on task 1, and on task 2 two refreshes restore both entries
        # through one forward, the steps between them the one selected
        assert heads.count("cross_entropy") == 12
        assert heads.count("soft_cross_entropy") == 4 + 6

        monkeypatch.setattr(restorer_module.GradientRestorer, "live_forward",
                            lambda self, model, inputs: None)
        monkeypatch.setattr(knowledge_module, "replay_backward",
                            _dynamic_backward)
        monkeypatch.setattr(restorer_module, "replay_backward",
                            _dynamic_backward)
        monkeypatch.setattr(restorer_module, "replay_forward",
                            _dynamic_forward)
        heads.clear()
        per_gradient, _ = self._client()
        want = self._run(per_gradient, global_state)
        assert not heads

        assert got["stats"] == want["stats"]
        assert got["stats"]["integrations"] > 0
        assert len(got["restored"]) == len(want["restored"])
        for (current, grads), (ref_current, ref_grads) in zip(
                got["restored"], want["restored"]):
            assert np.array_equal(current, ref_current)
            assert np.array_equal(grads, ref_grads)
        for key in got.keys() - {"stats", "restored"}:
            assert got[key].keys() == want[key].keys()
            for name in got[key]:
                assert np.array_equal(got[key][name], want[key][name]), (
                    key, name)

    @pytest.mark.parametrize("layer", [nn.Dropout(0.5), _TrainScaled()],
                             ids=["dropout", "train-mode-scale"])
    def test_train_mode_only_ops_take_the_per_gradient_path(self, layer):
        model = nn.Sequential(nn.Flatten(), nn.Linear(12, 6), layer,
                              nn.Linear(6, 3))
        restorer = restorer_module.GradientRestorer(scratch=model)
        x = np.zeros((2, 3, 2, 2), dtype=np.float32)
        model.train()
        assert restorer.live_forward(model, x) is None
        assert all(m.training for m in model.modules())
        model.eval()  # the verdict compares both modes, whichever is on
        assert restorer.live_forward(model, x) is None

    def test_a_bn_model_is_refused_before_any_capture(self):
        model = build_model("resnet18", 6, input_shape=(3, 8, 8),
                            rng=np.random.default_rng(1), width=4)
        restorer = restorer_module.GradientRestorer(scratch=model)
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        assert restorer.live_forward(model.train(), x) is None
        assert not model._tapes

    def test_a_buffer_free_convnet_shares_its_forward(self):
        model = build_model("six_cnn", 6, input_shape=(3, 8, 8),
                            rng=np.random.default_rng(1), width=4)
        restorer = restorer_module.GradientRestorer(scratch=model)
        x = np.zeros((2, 3, 8, 8), dtype=np.float32)
        assert restorer.live_forward(model.train(), x) is not None
        assert model.training


class _DropoutNet(ImageClassifier):
    """Flatten-Linear-ReLU-Dropout(0.5) body: its train-mode graph refuses
    capture, its eval-mode graph does not."""

    def __init__(self, num_classes, input_shape, rng):
        super().__init__(num_classes, input_shape)
        c, h, w = input_shape
        self.body = nn.Sequential(nn.Flatten(), nn.Linear(c * h * w, 16, rng=rng),
                                  nn.ReLU(), nn.Dropout(0.5, rng=rng))
        self.classifier = nn.Linear(16, num_classes, rng=rng)

    def forward_features(self, x):
        return self.body(x)


class TestDropoutClient:
    """Train-mode steps of a dropout model run on dynamic autograd, which
    refuses nothing; its eval-mode steps still replay tapes."""

    @staticmethod
    def _client():
        spec = cifar100_like(
            train_per_class=6, test_per_class=2, input_shape=(3, 4, 4)
        ).with_tasks(2)
        bench = build_benchmark(spec, num_clients=1,
                                rng=np.random.default_rng(0))

        def factory():
            return _DropoutNet(spec.num_classes, spec.input_shape,
                               rng=np.random.default_rng(3))

        config = FedKnowConfig(extraction_finetune_iterations=2,
                               aggregation_finetune_batches=2)
        train = TrainConfig(batch_size=8, lr=0.05, momentum=0.9)
        client = FedKnowClient(0, bench.clients[0], factory(), train,
                               model_factory=factory, fedknow=config,
                               rng=np.random.default_rng(0))
        global_state = _DropoutNet(spec.num_classes, spec.input_shape,
                                   rng=np.random.default_rng(4)).state_dict()
        return client, global_state

    @staticmethod
    def _run(client, global_state) -> dict:
        record = {}
        for position in range(2):
            client.begin_task(position)
            client.local_train(3)
            client.receive_global(global_state, position)
            client.end_task()
            record[f"weights{position}"] = client.model.state_dict()
            record[f"knowledge{position}"] = client.store[position].values
        record["stats"] = dict(client.integration_stats)
        return record

    def test_client_trains_as_dynamic_autograd_does(self, monkeypatch):
        attempts = []
        capture = graph_module._capture_model

        def counted(model, fn, inputs):
            attempts.append((id(model), fn, model.training,
                             tuple(arr.shape for arr in inputs.values())))
            return capture(model, fn, inputs)

        monkeypatch.setattr(graph_module, "_capture_model", counted)
        replayed, global_state = self._client()
        got = self._run(replayed, global_state)
        # every refusal is kept with the tapes: no capture is tried twice
        assert attempts and len(attempts) == len(set(attempts))
        assert any(not training for _, _, training, _ in attempts)

        monkeypatch.setattr(restorer_module.GradientRestorer, "live_forward",
                            lambda self, model, inputs: None)
        monkeypatch.setattr(knowledge_module, "replay_backward",
                            _dynamic_backward)
        monkeypatch.setattr(restorer_module, "replay_backward",
                            _dynamic_backward)
        monkeypatch.setattr(restorer_module, "replay_forward",
                            _dynamic_forward)
        dynamic, _ = self._client()
        want = self._run(dynamic, global_state)

        assert got["stats"] == want["stats"]
        assert got["stats"]["integrations"] > 0
        for key in got.keys() - {"stats"}:
            assert got[key].keys() == want[key].keys()
            for name in got[key]:
                assert np.array_equal(got[key][name], want[key][name]), (
                    key, name)
