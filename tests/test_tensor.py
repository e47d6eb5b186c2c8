"""Tests for the autograd tensor engine."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, as_tensor, concat, no_grad, stack
from repro.nn.tensor import _unbroadcast, is_grad_enabled

floats = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
    elements=st.floats(-5, 5, allow_nan=False, width=32),
)


class TestConstruction:
    def test_default_dtype_is_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_explicit_dtype(self):
        assert Tensor([1.0], dtype=np.float64).dtype == np.float64

    def test_from_tensor_shares_semantics(self):
        t = Tensor([1.0, 2.0])
        u = Tensor(t)
        assert np.allclose(u.data, t.data)

    def test_requires_grad_flag(self):
        assert not Tensor([1.0]).requires_grad
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0]), Tensor)


class TestBackwardBasics:
    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_on_non_scalar_requires_grad_arg(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_simple_chain(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x
        y.backward()
        assert x.grad == pytest.approx(5.0)  # 2x + 1 at x=2

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 3.0).backward()
        (x * 2.0).backward()
        assert x.grad == pytest.approx(5.0)

    def test_zero_grad(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 3.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_detach_cuts_graph(self):
        x = Tensor(2.0, requires_grad=True)
        y = x.detach()
        assert not y.requires_grad

    def test_diamond_graph_accumulation(self):
        # x used twice: gradient must sum both paths
        x = Tensor(3.0, requires_grad=True)
        a = x * 2.0
        b = x * 4.0
        (a + b).backward()
        assert x.grad == pytest.approx(6.0)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 0.001
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_no_grad_disables_graph(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_no_grad_is_per_thread(self):
        seen = {}

        def other():
            seen["enabled"] = is_grad_enabled()
            x = Tensor(3.0, requires_grad=True)
            (x * x).backward()
            seen["grad"] = float(x.grad)
            with no_grad():
                seen["inside"] = is_grad_enabled()

        with no_grad():
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            # the other thread's no_grad exit did not re-enable this one
            assert not is_grad_enabled()
        assert is_grad_enabled()
        # this thread's no_grad did not reach the other thread
        assert seen == {"enabled": True, "grad": 6.0, "inside": False}


class TestArithmetic:
    @given(floats)
    def test_add_backward_matches_ones(self, data):
        x = Tensor(data, requires_grad=True, dtype=np.float64)
        (x + x).sum().backward()
        assert np.allclose(x.grad, 2.0 * np.ones_like(data))

    def test_broadcast_add(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        (x + b).sum().backward()
        assert x.grad.shape == (2, 3)
        assert np.allclose(b.grad, [2.0, 2.0, 2.0])

    def test_mul_grad(self):
        x = Tensor([2.0, 3.0], requires_grad=True, dtype=np.float64)
        y = Tensor([5.0, 7.0], requires_grad=True, dtype=np.float64)
        (x * y).sum().backward()
        assert np.allclose(x.grad, [5.0, 7.0])
        assert np.allclose(y.grad, [2.0, 3.0])

    def test_div_grad(self):
        x = Tensor([4.0], requires_grad=True, dtype=np.float64)
        y = Tensor([2.0], requires_grad=True, dtype=np.float64)
        (x / y).sum().backward()
        assert np.allclose(x.grad, [0.5])
        assert np.allclose(y.grad, [-1.0])

    def test_rsub_rdiv(self):
        x = Tensor([2.0], requires_grad=True, dtype=np.float64)
        (10.0 - x).sum().backward()
        assert np.allclose(x.grad, [-1.0])
        x.zero_grad()
        (8.0 / x).sum().backward()
        assert np.allclose(x.grad, [-2.0])

    def test_pow_grad(self):
        x = Tensor([3.0], requires_grad=True, dtype=np.float64)
        (x**3).sum().backward()
        assert np.allclose(x.grad, [27.0])

    def test_pow_rejects_tensor_exponent(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(TypeError):
            x ** Tensor([2.0])

    def test_neg(self):
        x = Tensor([1.0, -2.0], requires_grad=True, dtype=np.float64)
        (-x).sum().backward()
        assert np.allclose(x.grad, [-1.0, -1.0])

    def test_matmul_grads(self, gradcheck):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True, dtype=np.float64)
        ((a @ b) ** 2).sum().backward()

        def f():
            return float(((a.data @ b.data) ** 2).sum())

        assert np.allclose(gradcheck(f, a.data), a.grad, atol=1e-5)
        assert np.allclose(gradcheck(f, b.data), b.grad, atol=1e-5)


class TestElementwiseOps:
    @pytest.mark.parametrize(
        "op,derivative",
        [
            ("relu", lambda x: (x > 0).astype(float)),
            ("sigmoid", lambda x: (1 / (1 + np.exp(-x))) * (1 - 1 / (1 + np.exp(-x)))),
            ("tanh", lambda x: 1 - np.tanh(x) ** 2),
            ("exp", np.exp),
        ],
    )
    def test_derivatives(self, op, derivative):
        data = np.array([-1.5, -0.2, 0.3, 2.0])
        x = Tensor(data, requires_grad=True, dtype=np.float64)
        getattr(x, op)().sum().backward()
        assert np.allclose(x.grad, derivative(data), atol=1e-12)

    def test_log_sqrt_abs(self):
        data = np.array([0.5, 2.0, 4.0])
        x = Tensor(data, requires_grad=True, dtype=np.float64)
        x.log().sum().backward()
        assert np.allclose(x.grad, 1.0 / data)
        x.zero_grad()
        x.sqrt().sum().backward()
        assert np.allclose(x.grad, 0.5 / np.sqrt(data))
        y = Tensor([-2.0, 3.0], requires_grad=True, dtype=np.float64)
        y.abs().sum().backward()
        assert np.allclose(y.grad, [-1.0, 1.0])


class TestReductionsAndViews:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True, dtype=np.float64)
        s = x.sum(axis=(0, 2), keepdims=True)
        assert s.shape == (1, 3, 1)
        s.sum().backward()
        assert np.allclose(x.grad, np.ones((2, 3, 4)))

    def test_mean_gradient_scaling(self):
        x = Tensor(np.ones((4, 5)), requires_grad=True, dtype=np.float64)
        x.mean().backward()
        assert np.allclose(x.grad, np.full((4, 5), 1.0 / 20))

    def test_mean_axis(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, dtype=np.float64)
        m = x.mean(axis=1)
        assert np.allclose(m.data, [1.0, 4.0])
        m.sum().backward()
        assert np.allclose(x.grad, np.full((2, 3), 1.0 / 3))

    def test_max_gradient_to_argmax(self):
        x = Tensor([[1.0, 5.0, 2.0]], requires_grad=True, dtype=np.float64)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        x = Tensor([[2.0, 2.0]], requires_grad=True, dtype=np.float64)
        x.max(axis=1).sum().backward()
        assert np.allclose(x.grad.sum(), 1.0)

    def test_reshape_transpose_flatten(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True,
                   dtype=np.float64)
        y = x.reshape(6, 4).transpose(1, 0).flatten()
        assert y.shape == (4, 6)
        y.sum().backward()
        assert np.allclose(x.grad, np.ones((2, 3, 4)))

    def test_getitem_scatter(self):
        x = Tensor(np.arange(10.0), requires_grad=True, dtype=np.float64)
        x[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        assert np.allclose(x.grad, expected)

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        (concat([a, b], axis=1) * 2.0).sum().backward()
        assert np.allclose(a.grad, np.full((2, 2), 2.0))
        assert np.allclose(b.grad, np.full((2, 3), 2.0))

    def test_stack_backward(self):
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        s = stack([a, b], axis=0)
        assert s.shape == (2, 3)
        (s * np.array([[1.0], [2.0]])).sum().backward()
        assert np.allclose(a.grad, np.ones(3))
        assert np.allclose(b.grad, np.full(3, 2.0))


class TestUnbroadcast:
    @given(floats)
    def test_unbroadcast_identity(self, data):
        assert np.array_equal(_unbroadcast(data, data.shape), data)

    def test_unbroadcast_sums_leading(self):
        grad = np.ones((5, 2, 3))
        out = _unbroadcast(grad, (2, 3))
        assert out.shape == (2, 3)
        assert np.allclose(out, np.full((2, 3), 5.0))

    def test_unbroadcast_sums_size_one_dims(self):
        grad = np.ones((2, 3))
        out = _unbroadcast(grad, (2, 1))
        assert out.shape == (2, 1)
        assert np.allclose(out, np.full((2, 1), 3.0))
