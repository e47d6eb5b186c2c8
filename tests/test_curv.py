"""Tests for the curvature subsystem: the empirical Fisher estimator, the
pluggable signature selector seam, and the fedvb variational-Bayes method.

The estimator properties are pinned with hypothesis: non-negativity and
sample-order invariance hold for *every* seed, and the single-sample Fisher
diagonal must agree with a central finite difference of the loss itself.
The selector seam's contract is bit-identity: the default ``magnitude``
selector reproduces the pre-seam extractor exactly, down to the retained
indices and a full training run's accuracy matrix.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curv import (
    SELECTOR_SPECS,
    FisherSelector,
    HybridSelector,
    MagnitudeSelector,
    SignatureSelector,
    create_selector,
    empirical_fisher_diagonal,
)
from repro.models import build_model
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad

NUM_CLASSES = 8
INPUT_SHAPE = (3, 8, 8)


def small_model(seed: int = 0):
    """A 526-parameter SixCNN — small enough for finite differences."""
    return build_model(
        "six_cnn", NUM_CLASSES, input_shape=INPUT_SHAPE,
        rng=np.random.default_rng(seed), width=2,
    )


def make_batch(seed: int, n: int):
    """``n`` synthetic samples over the first half of the classes."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n,) + INPUT_SHAPE).astype(np.float32)
    y = rng.integers(0, NUM_CLASSES // 2, size=n)
    mask = np.zeros(NUM_CLASSES, dtype=bool)
    mask[: NUM_CLASSES // 2] = True
    return x, y, mask


def flat_params(model) -> np.ndarray:
    return np.concatenate(
        [p.data.ravel() for _, p in model.named_parameters()]
    ).astype(np.float64)


# ----------------------------------------------------------------------
# diagonal Fisher properties (hypothesis)
# ----------------------------------------------------------------------
class TestEmpiricalFisher:
    @given(st.integers(0, 300))
    @settings(max_examples=10)
    def test_non_negative_and_finite(self, seed):
        model = small_model(seed % 7)
        x, y, mask = make_batch(seed, 5)
        fisher = empirical_fisher_diagonal(model, x, y, mask)
        assert fisher.shape == (model.num_parameters(),)
        assert np.isfinite(fisher).all()
        assert (fisher >= 0).all()

    @given(st.integers(0, 300))
    @settings(max_examples=10)
    def test_sample_order_invariance(self, seed):
        model = small_model(1)
        x, y, mask = make_batch(seed, 6)
        forward = empirical_fisher_diagonal(model, x, y, mask)
        perm = np.random.default_rng(seed + 1).permutation(len(y))
        shuffled = empirical_fisher_diagonal(model, x[perm], y[perm], mask)
        np.testing.assert_allclose(forward, shuffled, rtol=1e-6, atol=1e-12)

    def test_chunk_invariance(self):
        """Chunked batched replay must not change the estimate."""
        model = small_model(2)
        x, y, mask = make_batch(9, 7)
        wide = empirical_fisher_diagonal(model, x, y, mask, chunk=32)
        narrow = empirical_fisher_diagonal(model, x, y, mask, chunk=3)
        np.testing.assert_allclose(wide, narrow, rtol=1e-6, atol=1e-12)

    def test_single_sample_matches_eager_backward(self):
        """One sample: the Fisher diagonal IS the squared loss gradient."""
        model = small_model(3)
        x, y, mask = make_batch(4, 1)
        fisher = empirical_fisher_diagonal(model, x, y, mask)
        model.zero_grad()
        F.cross_entropy(model(Tensor(x)), y, class_mask=mask).backward()
        grad = np.concatenate(
            [p.grad.ravel() for _, p in model.named_parameters()]
        ).astype(np.float64)
        np.testing.assert_allclose(fisher, grad * grad, rtol=1e-6, atol=1e-14)

    def test_single_sample_matches_finite_difference(self, gradcheck):
        """Central-difference diagonal agreement on the tiny model."""
        model = small_model(5)
        x, y, mask = make_batch(6, 1)

        def loss():
            return float(
                F.cross_entropy(
                    model(Tensor(x)), y, class_mask=mask
                ).item()
            )

        # the float32 forward resolves the loss to ~5e-7; eps=1e-3 keeps the
        # central difference well above that noise floor
        numeric = np.concatenate([
            gradcheck(loss, p.data, 1e-3).ravel()
            for _, p in model.named_parameters()
        ])
        fisher = empirical_fisher_diagonal(model, x, y, mask)
        np.testing.assert_allclose(
            fisher, numeric * numeric, rtol=2e-2, atol=1e-5
        )

    def test_zero_samples_rejected(self):
        model = small_model(0)
        x, y, mask = make_batch(0, 3)
        with pytest.raises(ValueError):
            empirical_fisher_diagonal(model, x[:0], y[:0], mask)

    def test_tape_reuse_tracks_live_weights(self):
        """The tape captured on the model serves it after its weights and
        BN statistics move: SixCNN on the batched per-sample replay,
        ResNet-18 (batch norm) on the serial one.  The estimate equals a
        fresh copy's bit for bit, and no module's train/eval flag moves."""
        for name in ("six_cnn", "resnet18"):
            model = build_model(
                name, NUM_CLASSES, input_shape=INPUT_SHAPE,
                rng=np.random.default_rng(6), width=2,
            )
            x, y, mask = make_batch(7, 4)
            model.train()
            list(model.modules())[1].eval()  # flags need not agree
            modes = [m.training for m in model.modules()]
            before = empirical_fisher_diagonal(model, x, y, mask, chunk=3)
            for _, p in model.named_parameters():
                p.data[...] += 0.05
            with no_grad():
                model(Tensor(x))  # a train-mode forward moves BN statistics
            after = empirical_fisher_diagonal(model, x, y, mask, chunk=3)
            fresh = empirical_fisher_diagonal(
                pickle.loads(pickle.dumps(model)), x, y, mask, chunk=3
            )
            np.testing.assert_array_equal(after, fresh)
            assert not np.allclose(before, after)
            assert len(model._tapes) == 1
            assert [m.training for m in model.modules()] == modes


# ----------------------------------------------------------------------
# the selector seam
# ----------------------------------------------------------------------
class TestSelectors:
    def test_magnitude_scores_bit_identical_to_reference(self, tiny_model):
        scores = MagnitudeSelector().scores(tiny_model, task=None)
        reference = np.concatenate(
            [np.abs(p.data).ravel() for p in tiny_model.parameters()]
        )
        assert np.array_equal(scores, reference)

    def test_registry_round_trips_describe(self):
        for spec in ("magnitude", "fisher", "hybrid:0.5", "hybrid:0", "hybrid:1"):
            selector = create_selector(spec)
            assert create_selector(selector.describe()).describe() \
                == selector.describe()
        assert create_selector(None).describe() == "magnitude"
        instance = FisherSelector(max_samples=7)
        assert create_selector(instance) is instance

    @pytest.mark.parametrize(
        "spec", ["nope", "magnitude:2", "fisher:0.5", "hybrid", "hybrid:x",
                 "hybrid:1.5"]
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError) as excinfo:
            create_selector(spec)
        if spec not in ("hybrid:1.5",):  # range error names the bound instead
            assert "magnitude" in str(excinfo.value)

    def test_fisher_selector_scores(self, tiny_benchmark, tiny_model):
        task = tiny_benchmark.clients[0].tasks[0]
        scores = FisherSelector(max_samples=16).scores(
            tiny_model, task, rng=np.random.default_rng(0)
        )
        assert scores.shape == (tiny_model.num_parameters(),)
        assert np.isfinite(scores).all()
        assert (scores >= 0).all()

    def test_hybrid_endpoints_match_components(
        self, tiny_benchmark, tiny_model
    ):
        task = tiny_benchmark.clients[0].tasks[0]
        at_zero = HybridSelector(mix=0.0).scores(
            tiny_model, task, np.random.default_rng(0)
        )
        magnitude = MagnitudeSelector().scores(tiny_model, task)
        np.testing.assert_allclose(at_zero, magnitude / magnitude.mean())
        at_one = HybridSelector(mix=1.0, max_samples=16).scores(
            tiny_model, task, np.random.default_rng(0)
        )
        fisher = FisherSelector(max_samples=16).scores(
            tiny_model, task, np.random.default_rng(0)
        )
        np.testing.assert_allclose(at_one, fisher / fisher.mean())

    def test_extractor_default_bit_identical(self, tiny_benchmark, tiny_model):
        """The seam's contract: no selector == explicit magnitude ==
        the pre-seam extractor's retained indices and values."""
        from repro.core.knowledge import KnowledgeExtractor

        task = tiny_benchmark.clients[0].tasks[0]
        default = KnowledgeExtractor(ratio=0.1).extract(tiny_model, task)
        explicit = KnowledgeExtractor(ratio=0.1, selector="magnitude").extract(
            tiny_model, task
        )
        for name in default.indices:
            assert np.array_equal(default.indices[name], explicit.indices[name])
            assert np.array_equal(default.values[name], explicit.values[name])

    def test_fisher_extraction_changes_support(self, tiny_benchmark, tiny_model):
        from repro.core.knowledge import KnowledgeExtractor

        task = tiny_benchmark.clients[0].tasks[0]
        rng = np.random.default_rng(0)
        magnitude = KnowledgeExtractor(ratio=0.05).extract(
            tiny_model, task, rng=rng
        )
        fisher = KnowledgeExtractor(ratio=0.05, selector="fisher").extract(
            tiny_model, task, rng=np.random.default_rng(0)
        )
        assert fisher.num_retained() == magnitude.num_retained()
        assert any(
            not np.array_equal(magnitude.indices[n], fisher.indices[n])
            for n in magnitude.indices
        )

    def test_extractor_rejects_wrong_score_size(self, tiny_benchmark, tiny_model):
        from repro.core.knowledge import KnowledgeExtractor

        class Broken(SignatureSelector):
            def scores(self, model, task, rng=None):
                return np.ones(3)

            def describe(self):
                return "broken"

        task = tiny_benchmark.clients[0].tasks[0]
        with pytest.raises(ValueError):
            KnowledgeExtractor(ratio=0.1, selector=Broken()).extract(
                tiny_model, task
            )

    def test_specs_catalogue_covers_registry(self):
        assert SELECTOR_SPECS == ("magnitude", "fisher", "hybrid:<mix>")


class TestResolveSelector:
    def test_defaults_per_method(self):
        from repro.federated import resolve_selector

        assert resolve_selector("fedknow") == "magnitude"
        assert resolve_selector("fedknow-fisher") == "fisher"
        assert resolve_selector("fedknow", "hybrid:0.50") == "hybrid:0.5"

    def test_non_extracting_method_rejects_selector(self):
        from repro.federated import resolve_selector

        assert resolve_selector("fedavg") == "magnitude"
        with pytest.raises(ValueError, match="signature-knowledge"):
            resolve_selector("fedavg", "fisher")

    def test_unknown_spec_rejected(self):
        from repro.federated import resolve_selector

        with pytest.raises(ValueError, match="magnitude"):
            resolve_selector("fedknow", "nope")
