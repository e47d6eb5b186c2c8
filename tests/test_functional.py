"""Numeric gradient checks and behaviour tests for nn.functional."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_kernels import GRADS_BITWISE, assert_bitwise, assert_close, ref_col2im

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.graph import OPS


def t(data, grad=True):
    return Tensor(data, requires_grad=grad, dtype=np.float64)


class TestIm2Col:
    def test_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols, oh, ow = F.im2col(x, 3, 3, 1, 1, 1, 1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2, 3 * 9, 64)

    def test_col2im_inverts_sum(self, rng):
        # col2im(im2col(x)) multiplies each pixel by its window multiplicity
        x = rng.normal(size=(1, 1, 4, 4))
        cols, _, _ = F.im2col(x, 2, 2, 2, 2, 0, 0)
        back = F.col2im(cols, x.shape, 2, 2, 2, 2, 0, 0)
        assert np.allclose(back, x)  # non-overlapping windows: exact inverse

    def test_window_too_large_raises(self, rng):
        x = rng.normal(size=(1, 1, 3, 3))
        with pytest.raises(ValueError):
            F.im2col(x, 5, 5, 1, 1, 0, 0)


class TestConv2d:
    def test_matches_manual_convolution(self):
        x = t(np.arange(16.0).reshape(1, 1, 4, 4))
        w = t(np.ones((1, 1, 2, 2)))
        out = F.conv2d(x, w, stride=2)
        expected = np.array([[[[0 + 1 + 4 + 5, 2 + 3 + 6 + 7],
                               [8 + 9 + 12 + 13, 10 + 11 + 14 + 15]]]])
        assert np.allclose(out.data, expected)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_gradcheck_groups(self, rng, gradcheck, groups):
        x = t(rng.normal(size=(2, 4, 5, 5)))
        w = t(rng.normal(size=(4, 4 // groups, 3, 3)))
        b = t(rng.normal(size=(4,)))
        out = F.conv2d(x, w, b, stride=1, padding=1, groups=groups)
        (out * out).sum().backward()

        def f():
            return float(
                (F.conv2d(x, w, b, stride=1, padding=1, groups=groups).data ** 2).sum()
            )

        for tensor in (x, w, b):
            assert np.allclose(gradcheck(f, tensor.data), tensor.grad, atol=1e-5)

    def test_depthwise(self, rng):
        x = t(rng.normal(size=(1, 6, 4, 4)))
        w = t(rng.normal(size=(6, 1, 3, 3)))
        out = F.conv2d(x, w, padding=1, groups=6)
        assert out.shape == (1, 6, 4, 4)

    def test_channel_mismatch_raises(self, rng):
        x = t(rng.normal(size=(1, 3, 4, 4)))
        w = t(rng.normal(size=(4, 2, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_groups_not_dividing_output_raises(self, rng):
        x = t(rng.normal(size=(1, 4, 4, 4)))
        w = t(rng.normal(size=(3, 2, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w, groups=2)


def ref_input_grad(weight, g, padding, groups):
    """im2col's stride-1 input gradient: ``Wᵀ @ g`` per (client, sample,
    group), folded by col2im.  ``weight`` is ``(B, C_out, C/G, kh, kw)``
    and ``g`` ``(B, N, C_out, OH, OW)``."""
    b, n, c_out, oh, ow = g.shape
    c_g, kh, kw = weight.shape[2:]
    ph, pw = padding
    h, w = oh + kh - 1 - 2 * ph, ow + kw - 1 - 2 * pw
    cog = c_out // groups
    cols = np.empty((b, n, groups, c_g * kh * kw, oh * ow), dtype=g.dtype)
    for client in range(b):
        for sample in range(n):
            for group in range(groups):
                out = slice(group * cog, (group + 1) * cog)
                w_t = weight[client, out].reshape(cog, -1).T
                cols[client, sample, group] = w_t @ g[client, sample, out].reshape(cog, -1)
    gx = ref_col2im(cols.reshape(b * n, -1, oh * ow), (b * n, groups * c_g, h, w),
                    kh, kw, 1, 1, ph, pw)
    return gx.reshape(b, n, groups * c_g, h, w)


def conv_forward(x, weight, padding, groups):
    """The context of a batched stride-1 conv forward that wants only the
    input gradient."""
    ctx = {"arg_batched": (True, True), "needs": (True, False)}
    ph, pw = padding
    OPS["conv2d"].batched_forward(ctx, x, weight, sh=1, sw=1, ph=ph, pw=pw,
                                  groups=groups)
    return ctx


def conv_input_grad(ctx, g):
    return OPS["conv2d"].batched_vjp(ctx, g)[0]


def relu_like_cotangent(rng, *shape):
    """Uniform values, about 40% of them exact zeros and a fifth of those
    ``-0``, as a ReLU mask leaves a conv's output gradient."""
    g = rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
    zeros = rng.random(shape) < 0.4
    g[zeros] = 0.0
    g[zeros & (rng.random(shape) < 0.2)] = -0.0
    return g


#: name -> (C_in, C_out, (H, W), (kh, kw), (ph, pw), groups, batch)
INPUT_GRAD_CASES = {
    "1x3-7x5-pad0,1": (8, 16, (7, 5), (1, 3), (0, 1), 1, 5),
    "3x1-6x9-pad1,0": (8, 16, (6, 9), (3, 1), (1, 0), 1, 4),
    "2x3-7x5-pad2,1": (8, 16, (7, 5), (2, 3), (2, 1), 1, 3),
    "3x3-6x9-pad0": (8, 16, (6, 9), (3, 3), (0, 0), 1, 3),
    "3x3-5x7-pad3": (8, 16, (5, 7), (3, 3), (3, 3), 1, 2),
    "1x1-7x5": (8, 16, (7, 5), (1, 1), (0, 0), 1, 3),
    "3x3-1x1-pad1": (8, 16, (1, 1), (3, 3), (1, 1), 1, 4),
    "groups2-3x3-7x5": (8, 16, (7, 5), (3, 3), (1, 1), 2, 3),
    "depthwise-3x3-6x9": (8, 8, (6, 9), (3, 3), (1, 1), 8, 3),
    # one input channel: a product per offset would be a GEMV
    "1to64-3x3-6x8": (1, 64, (6, 8), (3, 3), (1, 1), 1, 2),
    # 54-position frames: without zero columns up to a multiple of 16, the
    # product's last six columns hold real outputs
    "1x3-6x8-pad0,1-32out": (8, 32, (6, 8), (1, 3), (0, 1), 1, 1),
}


class TestConvInputGrad:
    """The stride-1 input gradient on shapes ``tests/test_kernels.py``'s
    grid lacks, against im2col's, by that file's rule: bitwise where
    numpy's OpenBLAS runs its SkylakeX kernels, within ``1e-5 * max|ref|``
    elsewhere."""

    @staticmethod
    def check(new, ref, what):
        if GRADS_BITWISE:
            assert_bitwise(new, ref, what)
        else:
            assert_close(new, ref, what)

    @staticmethod
    def case(name, clients, rng):
        c_in, c_out, (h, w), (kh, kw), (ph, pw), groups, batch = INPUT_GRAD_CASES[name]
        x = rng.uniform(-1, 1, (clients, batch, c_in, h, w)).astype(np.float32)
        weight = rng.uniform(
            -1, 1, (clients, c_out, c_in // groups, kh, kw)
        ).astype(np.float32)
        oh, ow = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
        g = relu_like_cotangent(rng, clients, batch, c_out, oh, ow)
        return x, weight, g, (ph, pw), groups

    @pytest.mark.parametrize("clients", [1, 3])
    @pytest.mark.parametrize("name", sorted(INPUT_GRAD_CASES))
    def test_matches_im2col(self, name, clients):
        rng = np.random.default_rng(sum(map(ord, name)) + clients)
        x, weight, g, padding, groups = self.case(name, clients, rng)
        new = conv_input_grad(conv_forward(x, weight, padding, groups), g)
        self.check(new, ref_input_grad(weight, g, padding, groups), name)

    def test_a_shorter_last_slice(self):
        """Slices of two clients, then one: each slice's fold starts from
        zeros again."""
        rng = np.random.default_rng(5)
        x, weight, g, padding, groups = self.case("2x3-7x5-pad2,1", 5, rng)
        ref = ref_input_grad(weight, g, padding, groups)
        ctx = conv_forward(x, weight, padding, groups)
        patterns = set()
        for limit in (1 << k for k in range(10, 20)):
            with mock.patch.object(F, "_INPUT_GRAD_SLICE_BYTES", limit), \
                    mock.patch.object(np, "matmul", wraps=np.matmul) as spy:
                new = conv_input_grad(ctx, g)
            self.check(new, ref, f"slices of at most {limit} bytes")
            slices = [c.args[0].shape[0] for c in spy.call_args_list]
            patterns.add(tuple(dict.fromkeys(slices)))
        assert (2, 1) in patterns, patterns

    @pytest.mark.parametrize("clients,batch,bound_mb", [(16, 8, 1.5), (1, 64, 5.0)])
    def test_temporaries_on_sixcnn(self, clients, batch, bound_mb):
        """Peak traced bytes above the returned gradient on SixCNN's
        16->16 16x16 layer (1.04 and 3.56 MB; the padded-width kernel
        before the per-offset one held 2.97 and 13.2 MB)."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (clients, batch, 16, 16, 16)).astype(np.float32)
        weight = rng.uniform(-1, 1, (clients, 16, 16, 3, 3)).astype(np.float32)
        g = relu_like_cotangent(rng, clients, batch, 16, 16, 16)
        ctx = conv_forward(x, weight, (1, 1), 1)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            gx = conv_input_grad(ctx, g)
            peak = tracemalloc.get_traced_memory()[1] - base - gx.nbytes
        finally:
            if started:
                tracemalloc.stop()
        assert peak / 1e6 < bound_mb


class TestPooling:
    def test_max_pool_values(self):
        x = t(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = F.max_pool2d(x, 2)
        assert out.data.item() == 4.0

    def test_max_pool_gradcheck(self, rng, gradcheck):
        x = t(rng.normal(size=(2, 3, 6, 6)))
        F.max_pool2d(x, 2).sum().backward()

        def f():
            return float(F.max_pool2d(x, 2).data.sum())

        assert np.allclose(gradcheck(f, x.data), x.grad, atol=1e-6)

    def test_max_pool_overlapping_with_padding(self, rng):
        x = t(rng.normal(size=(1, 2, 5, 5)))
        out = F.max_pool2d(x, 3, stride=1, padding=1)
        assert out.shape == (1, 2, 5, 5)

    def test_avg_pool_values(self):
        x = t(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert F.avg_pool2d(x, 2).data.item() == pytest.approx(2.5)

    def test_avg_pool_gradcheck(self, rng, gradcheck):
        x = t(rng.normal(size=(2, 2, 4, 4)))
        (F.avg_pool2d(x, 2) ** 2).sum().backward()

        def f():
            return float((F.avg_pool2d(x, 2).data ** 2).sum())

        assert np.allclose(gradcheck(f, x.data), x.grad, atol=1e-6)

    def test_global_avg_pool(self, rng):
        x = t(rng.normal(size=(2, 3, 4, 4)))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        assert np.allclose(out.data, x.data.mean(axis=(2, 3)))


class TestBatchNorm:
    def test_training_normalises(self, rng):
        x = t(rng.normal(2.0, 3.0, size=(16, 4, 3, 3)))
        gamma = t(np.ones(4))
        beta = t(np.zeros(4))
        out = F.batch_norm(x, gamma, beta, np.zeros(4), np.ones(4), training=True)
        assert np.allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        assert np.allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self, rng):
        x = t(rng.normal(5.0, 1.0, size=(32, 2, 2, 2)))
        running_mean = np.zeros(2)
        running_var = np.ones(2)
        F.batch_norm(x, t(np.ones(2)), t(np.zeros(2)), running_mean, running_var,
                     training=True, momentum=1.0)
        assert np.allclose(running_mean, x.data.mean(axis=(0, 2, 3)), atol=1e-5)

    def test_eval_uses_running_stats(self, rng):
        x = t(rng.normal(size=(4, 2, 2, 2)))
        running_mean = np.full(2, 1.0)
        running_var = np.full(2, 4.0)
        out = F.batch_norm(x, t(np.ones(2)), t(np.zeros(2)), running_mean,
                           running_var, training=False)
        expected = (x.data - 1.0) / np.sqrt(4.0 + 1e-5)
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_gradcheck_training(self, rng, gradcheck):
        x = t(rng.normal(size=(4, 3, 2, 2)))
        gamma = t(rng.normal(size=(3,)))
        beta = t(rng.normal(size=(3,)))
        out = F.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
        (out * out).sum().backward()

        def f():
            result = F.batch_norm(
                x, gamma, beta, np.zeros(3), np.ones(3), training=True
            )
            return float((result.data ** 2).sum())

        for tensor in (x, gamma, beta):
            assert np.allclose(gradcheck(f, tensor.data), tensor.grad, atol=1e-4)

    def test_2d_input(self, rng):
        x = t(rng.normal(size=(8, 5)))
        out = F.batch_norm(x, t(np.ones(5)), t(np.zeros(5)), np.zeros(5),
                           np.ones(5), training=True)
        assert out.shape == (8, 5)

    def test_3d_input_raises(self, rng):
        x = t(rng.normal(size=(2, 3, 4)))
        with pytest.raises(ValueError):
            F.batch_norm(x, t(np.ones(3)), t(np.zeros(3)), np.zeros(3),
                         np.ones(3), training=True)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = t(rng.normal(size=(4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_training_scales_survivors(self, rng):
        x = t(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        survivors = out.data[out.data > 0]
        assert np.allclose(survivors, 2.0)
        assert 0.3 < (out.data > 0).mean() < 0.7

    def test_invalid_p_raises(self, rng):
        with pytest.raises(ValueError):
            F.dropout(t(np.ones(2)), 1.0, training=True, rng=rng)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, rng):
        x = t(rng.normal(size=(5, 7)))
        assert np.allclose(F.softmax(x).data.sum(axis=1), 1.0, atol=1e-6)

    def test_log_softmax_consistency(self, rng):
        x = t(rng.normal(size=(3, 4)))
        assert np.allclose(np.exp(F.log_softmax(x).data), F.softmax(x).data)

    def test_softmax_gradcheck(self, rng, gradcheck):
        x = t(rng.normal(size=(3, 4)))
        (F.softmax(x) ** 2).sum().backward()

        def f():
            return float((F.softmax(x).data ** 2).sum())

        assert np.allclose(gradcheck(f, x.data), x.grad, atol=1e-6)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = t(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-4

    def test_gradcheck(self, rng, gradcheck):
        logits = t(rng.normal(size=(5, 6)))
        labels = np.array([0, 1, 2, 3, 4])
        F.cross_entropy(logits, labels).backward()

        def f():
            return float(F.cross_entropy(logits, labels).data)

        assert np.allclose(gradcheck(f, logits.data), logits.grad, atol=1e-6)

    def test_masked_gradcheck(self, rng, gradcheck):
        logits = t(rng.normal(size=(4, 8)))
        mask = np.zeros(8, dtype=bool)
        mask[[1, 3, 5, 7]] = True
        labels = np.array([1, 3, 5, 7])
        F.cross_entropy(logits, labels, class_mask=mask).backward()

        def f():
            return float(F.cross_entropy(logits, labels, class_mask=mask).data)

        assert np.allclose(gradcheck(f, logits.data), logits.grad, atol=1e-6)

    def test_mask_zeroes_outside_gradient(self, rng):
        logits = t(rng.normal(size=(4, 8)))
        mask = np.zeros(8, dtype=bool)
        mask[:4] = True
        F.cross_entropy(logits, np.array([0, 1, 2, 3]), class_mask=mask).backward()
        assert np.allclose(logits.grad[:, 4:], 0.0)

    def test_label_shape_mismatch_raises(self, rng):
        logits = t(rng.normal(size=(4, 8)))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.array([0, 1]))


class TestSoftCrossEntropy:
    def test_matches_hard_ce_on_onehot(self, rng):
        logits = t(rng.normal(size=(4, 5)))
        labels = np.array([0, 2, 1, 4])
        onehot = np.eye(5)[labels]
        soft = F.soft_cross_entropy(logits, onehot)
        hard = F.cross_entropy(
            Tensor(logits.data, requires_grad=True, dtype=np.float64), labels
        )
        assert soft.item() == pytest.approx(hard.item(), rel=1e-6)

    def test_gradcheck(self, rng, gradcheck):
        logits = t(rng.normal(size=(3, 6)))
        target = rng.random((3, 6))
        target /= target.sum(axis=1, keepdims=True)
        F.soft_cross_entropy(logits, target).backward()

        def f():
            return float(F.soft_cross_entropy(logits, target).data)

        assert np.allclose(gradcheck(f, logits.data), logits.grad, atol=1e-6)

    def test_shape_mismatch_raises(self, rng):
        logits = t(rng.normal(size=(3, 6)))
        with pytest.raises(ValueError):
            F.soft_cross_entropy(logits, np.ones((3, 5)))


class TestAccuracy:
    def test_perfect(self):
        logits = np.array([[3.0, 0.0], [0.0, 3.0]])
        assert F.accuracy(logits, np.array([0, 1])) == 1.0

    def test_masked_accuracy_ignores_excluded_classes(self):
        logits = np.array([[10.0, 0.0, 1.0]])
        mask = np.array([False, True, True])
        # class 0 has the largest logit but is masked out
        assert F.accuracy(logits, np.array([2]), class_mask=mask) == 1.0

    @given(st.integers(2, 8), st.integers(1, 16))
    def test_accuracy_bounded(self, classes, n):
        rng = np.random.default_rng(classes * 100 + n)
        logits = rng.normal(size=(n, classes))
        labels = rng.integers(0, classes, size=n)
        acc = F.accuracy(logits, labels)
        assert 0.0 <= acc <= 1.0
