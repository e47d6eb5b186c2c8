"""Tests for fedvb: mean-field posteriors, precision-weighted aggregation,
and the selector seam's full-run bit-identity regression.

``TestSelectorRunPinning`` is the refactor's safety net: extracting the
selector seam out of :class:`~repro.core.knowledge.KnowledgeExtractor` must
not change a single bit of a default FedKNOW run, across scenario families.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_benchmark, cifar100_like, create_scenario
from repro.federated import (
    PRECISION_PREFIX,
    FedVBClient,
    FedVBServer,
    TrainConfig,
    create_trainer,
)
from repro.utils.serialization import encode_state


@pytest.fixture
def spec():
    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=2,
                       iterations_per_round=3)


def make_client(spec, config, client_id=0, **kwargs):
    from repro.models import build_model

    bench = build_benchmark(spec, num_clients=2, rng=np.random.default_rng(0))
    data = bench.clients[client_id]
    model = build_model(
        spec.model_name, spec.num_classes, input_shape=spec.input_shape,
        rng=np.random.default_rng(7), width=8,
    )
    return FedVBClient(client_id, data, model, config, **kwargs), data


class TestFedVBClient:
    def test_invalid_prior_precision_rejected(self, spec, config):
        with pytest.raises(ValueError):
            make_client(spec, config, prior_precision=0.0)

    def test_training_keeps_precision_positive(self, spec, config):
        client, data = make_client(spec, config)
        client.begin_task(0)
        stats = client.local_train(3)
        assert np.isfinite(stats["mean_loss"])
        assert (client.precision > 0).all()
        # training observed gradients, so certainty grows past the prior
        assert client.precision.mean() > client.prior_precision

    def test_upload_state_carries_precisions(self, spec, config):
        client, data = make_client(spec, config)
        client.begin_task(0)
        client.local_train(2)
        state = client.upload_state()
        model_keys = set(client.model.state_dict())
        prec_keys = {k for k in state if k.startswith(PRECISION_PREFIX)}
        assert prec_keys == {
            PRECISION_PREFIX + name for name, _ in
            client.model.named_parameters()
        }
        assert set(state) == model_keys | prec_keys
        for name, param in client.model.named_parameters():
            assert state[PRECISION_PREFIX + name].shape == param.data.shape
        encode_state(state)  # precisions must ride the existing codec

    def test_receive_global_strips_and_adopts_precision(self, spec, config):
        client, data = make_client(spec, config)
        client.begin_task(0)
        client.local_train(2)
        state = dict(client.upload_state())
        name, _ = next(iter(client.model.named_parameters()))
        state[PRECISION_PREFIX + name] = np.full_like(
            state[PRECISION_PREFIX + name], 42.0
        )
        client.receive_global(state, round_index=0)
        sl = client.view.slices[client._param_names.index(name)]
        assert np.allclose(client.precision[sl], 42.0)

    def test_end_task_folds_posterior_into_prior(self, spec, config):
        client, data = make_client(spec, config)
        client.begin_task(0)
        client.local_train(3)
        posterior_mean = client.view.gather().astype(np.float64)
        posterior_prec = client.precision.copy()
        client.end_task()
        assert np.array_equal(client.prior_mean, posterior_mean)
        assert np.array_equal(
            client.prior_prec, np.maximum(posterior_prec, 1e-8)
        )
        assert client._sq_count == 0

    def test_sampling_reproducible_across_constructions(self, spec, config):
        first, data = make_client(spec, config, rng=np.random.default_rng(3))
        second, _ = make_client(spec, config, rng=np.random.default_rng(3))
        first.begin_task(0)
        second.begin_task(0)
        first.local_train(2)
        second.local_train(2)
        assert np.array_equal(first.view.gather(), second.view.gather())

    def test_extra_state_bytes_counts_posterior(self, spec, config):
        client, _ = make_client(spec, config)
        extra = client.extra_state_bytes()
        assert extra == {"model": 3 * client.view.total * 4, "samples": 0}


class TestFedVBServer:
    def test_precision_weighted_closed_form(self):
        server = FedVBServer()
        states = [
            {
                "w": np.array([1.0, 3.0], dtype=np.float32),
                PRECISION_PREFIX + "w": np.array([1.0, 3.0], dtype=np.float32),
            },
            {
                "w": np.array([3.0, 4.0], dtype=np.float32),
                PRECISION_PREFIX + "w": np.array([3.0, 1.0], dtype=np.float32),
            },
        ]
        result = server.aggregate(states, [1.0, 1.0])
        # lam_g = mean of precisions; mu_g = precision-weighted mean
        np.testing.assert_allclose(
            result[PRECISION_PREFIX + "w"], [2.0, 2.0]
        )
        np.testing.assert_allclose(result["w"], [2.5, 3.25])

    def test_unequal_weights_scale_certainty(self):
        server = FedVBServer()
        states = [
            {"w": np.float32([0.0]), PRECISION_PREFIX + "w": np.float32([2.0])},
            {"w": np.float32([4.0]), PRECISION_PREFIX + "w": np.float32([2.0])},
        ]
        result = server.aggregate(states, [3.0, 1.0])
        # equal precisions: the sample weights alone steer the mean
        np.testing.assert_allclose(result["w"], [1.0])
        np.testing.assert_allclose(result[PRECISION_PREFIX + "w"], [2.0])

    def test_unpartnered_float_keys_fall_back_to_fedavg(self):
        server = FedVBServer()
        states = [
            {"buffer": np.float32([2.0]), "count": np.array([5])},
            {"buffer": np.float32([4.0]), "count": np.array([9])},
        ]
        result = server.aggregate(states, [1.0, 1.0])
        np.testing.assert_allclose(result["buffer"], [3.0])
        assert result["count"][0] == 5  # int keys keep the first client

    def test_error_contract_matches_fedavg(self):
        server = FedVBServer()
        with pytest.raises(ValueError):
            server.aggregate([], [])
        with pytest.raises(ValueError):
            server.aggregate([{"w": np.float32([1.0])}], [1.0, 2.0])
        with pytest.raises(ValueError):
            server.aggregate([{"w": np.float32([1.0])}], [0.0])
        with pytest.raises(ValueError):
            server.aggregate(
                [{"w": np.float32([1.0])}, {"v": np.float32([1.0])}],
                [1.0, 1.0],
            )


class TestFedVBTraining:
    def test_end_to_end_run(self, spec, config):
        bench = build_benchmark(
            spec, num_clients=2, rng=np.random.default_rng(0)
        )
        with create_trainer("fedvb", bench, config) as trainer:
            result = trainer.run()
        assert result.method == "fedvb"
        assert np.isfinite(result.final_accuracy)
        assert result.final_accuracy > 1.0 / spec.num_classes
        assert result.accuracy_matrix.shape == (2, 2)


# ----------------------------------------------------------------------
# selector seam bit-identity across full runs
# ----------------------------------------------------------------------
def run_fedknow(spec, config, scenario="class-inc", selector=None):
    scenario_obj = create_scenario(scenario)
    bench = scenario_obj.build(spec, num_clients=2, rng=np.random.default_rng(0))
    with create_trainer(
        "fedknow", bench, config, selector=selector
    ) as trainer:
        result = trainer.run()
        state = {k: v.copy() for k, v in trainer.server.global_state.items()}
    return result, state


class TestSelectorRunPinning:
    @pytest.mark.parametrize(
        "scenario", ["class-inc", "domain-inc:drift=0.3", "blurry:overlap=0.2"]
    )
    def test_default_magnitude_bit_identical(self, spec, config, scenario):
        ref_result, ref_state = run_fedknow(spec, config, scenario)
        out_result, out_state = run_fedknow(
            spec, config, scenario, selector="magnitude"
        )
        assert np.array_equal(
            ref_result.accuracy_matrix, out_result.accuracy_matrix,
            equal_nan=True,
        )
        assert set(ref_state) == set(out_state)
        assert all(np.array_equal(ref_state[k], out_state[k]) for k in ref_state)
        assert ref_result.selector == out_result.selector == "magnitude"

    def test_fisher_selector_runs_and_is_recorded(self, spec, config):
        result, _ = run_fedknow(spec, config, selector="fisher")
        assert result.selector == "fisher"
        assert np.isfinite(result.final_accuracy)
