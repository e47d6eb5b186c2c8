"""The conv and max-pool kernels against the im2col kernels they replaced.

``nn.functional`` builds one column buffer per conv call, takes the weight
gradient from it as ``(K x N·L) @ gᵀ``, computes a stride-1 input gradient
on the padded width, and pools 2x2 / stride 2 on four strided views.  The
reference kernels below are the earlier ones: im2col, one
GEMM per (client, sample, group), transposed copies of the columns and of
``g`` for the weight gradient, col2im; and for max-pool im2col, argmax,
``put_along_axis`` and col2im.

What must match:

* conv outputs and bias gradients, bitwise (``uint32`` views, so ±0
  counts) on every BLAS: the forward issues the same per-(client, sample,
  group) GEMMs, only reading the columns through a view;
* conv input gradients, bitwise on every shape and client count (1, 3 and
  16): they are computed over slices of clients (one or several, and a
  shorter last slice at 16 clients), on the same per-(client, sample,
  group) GEMMs;
* conv weight gradients, bitwise on the SixCNN shapes and within
  ``1e-5 * max|ref|`` elsewhere.  The weight gradient swaps the GEMM's
  operands, and the padded-width input gradient computes more columns per
  call;
* max-pool outputs and input gradients, bitwise on every BLAS, including
  windows with ±0 ties, all-equal windows and NaNs (the first NaN wins, as
  argmax picks it).

The two conv gradient claims are properties of the BLAS, not of the
kernels: on those shapes neither change alters any element's reduction
order in OpenBLAS 0.3.31's SkylakeX (AVX-512) kernels, the core the
``spec.json`` fingerprints of ``benchmarks/e2e`` were recorded on.  Its
Haswell (AVX2) kernels round a stride-1 input gradient differently, and
another BLAS may round any shape differently.  So the input and weight
gradients are bitwise only where numpy's bundled OpenBLAS runs that core
(``BLAS_CORE``); on any other they are checked within ``1e-5 * max|ref|``.
"""

from __future__ import annotations

import ctypes
from unittest import mock

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.graph import OPS
from repro.utils.runtime import bundled_openblas

# ---------------------------------------------------------------------------
# reference kernels
# ---------------------------------------------------------------------------


def ref_im2col(x, kh, kw, sh, sw, ph, pw):
    n, c, h, w = x.shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i:i_end:sh, j : j + sw * ow : sw]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def ref_col2im(cols, x_shape, kh, kw, sh, sw, ph, pw):
    n, c, h, w = x_shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            padded[:, :, i:i_end:sh, j : j + sw * ow : sw] += cols[:, :, i, j]
    return padded[:, :, ph : ph + h, pw : pw + w]


def ref_conv2d(x, weight, bias, g, stride, padding, groups):
    """Batched conv forward and vjp: ``x`` (B, N, C, H, W), ``weight``
    (B, C_out, C_in/G, kh, kw), ``bias`` (B, C_out), ``g`` the output
    gradient.  Returns ``(out, gx, gw, gb)``."""
    sh = sw = stride
    ph = pw = padding
    b, n, c = x.shape[:3]
    c_out, c_in_g, kh, kw = weight.shape[1:]
    cols, oh, ow = ref_im2col(
        x.reshape((b * n,) + x.shape[2:]), kh, kw, sh, sw, ph, pw
    )
    l = oh * ow
    cog = c_out // groups
    k = c_in_g * kh * kw
    cols_g = cols.reshape(b, n, groups, k, l)
    w_g = weight.reshape(b, groups, cog, k)
    out = np.matmul(w_g[:, None], cols_g).reshape(b, n, c_out, oh, ow)
    out = out + bias.reshape(b, 1, c_out, 1, 1)
    g_g = g.reshape(b, n, groups, cog, l)
    gb = g.sum(axis=(1, 3, 4))
    g2 = np.ascontiguousarray(g_g.transpose(0, 2, 3, 1, 4))
    g2 = g2.reshape(b, groups, cog, n * l)
    c2 = np.ascontiguousarray(cols_g.transpose(0, 2, 1, 4, 3))
    c2 = c2.reshape(b, groups, n * l, k)
    gw = np.matmul(g2, c2).reshape(weight.shape)
    grad_cols = np.matmul(w_g[:, None].swapaxes(-1, -2), g_g)
    grad_cols = grad_cols.reshape(b * n, c * kh * kw, l)
    gx = ref_col2im(
        grad_cols, (b * n,) + x.shape[2:], kh, kw, sh, sw, ph, pw
    ).reshape(x.shape)
    return out, gx, gw, gb


def ref_max_pool2d(x, g, kernel, stride, padding):
    """Max-pool forward and vjp on (N, C, H, W); returns ``(out, gx)``."""
    kh = kw = kernel
    sh = sw = stride
    ph = pw = padding
    n, c = x.shape[:2]
    data = x
    if padding:
        data = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                      constant_values=np.finfo(x.dtype).min)
    cols, oh, ow = ref_im2col(data, kh, kw, sh, sw, 0, 0)
    windows = cols.reshape(n, c, kh * kw, oh * ow)
    arg = windows.argmax(axis=2)
    out = np.take_along_axis(windows, arg[:, :, None, :], axis=2)[:, :, 0, :]
    grad_windows = np.zeros(windows.shape, dtype=x.dtype)
    np.put_along_axis(
        grad_windows, arg[:, :, None, :], g.reshape(n, c, 1, oh * ow), axis=2
    )
    grad = ref_col2im(grad_windows.reshape(n, c * kh * kw, oh * ow),
                      data.shape, kh, kw, sh, sw, 0, 0)
    gx = grad[:, :, ph : ph + x.shape[2], pw : pw + x.shape[3]]
    return out.reshape(n, c, oh, ow), gx


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _blas_core() -> str | None:
    """The kernel set numpy's bundled OpenBLAS runs, or ``None`` when numpy
    bundles no OpenBLAS that can say."""
    try:
        corename = bundled_openblas().scipy_openblas_get_corename64_
    except AttributeError:  # no bundled OpenBLAS, or another build
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


BLAS_CORE = _blas_core()
#: Whether conv input and weight gradients must match the reference bitwise
#: (see the module docstring).
GRADS_BITWISE = BLAS_CORE == "SkylakeX"


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def assert_bitwise(new, ref, what):
    assert new.shape == ref.shape, what
    mismatched = int((_bits(new) != _bits(ref)).sum())
    assert mismatched == 0, f"{what}: {mismatched} of {ref.size} elements differ"


def assert_close(new, ref, what):
    assert new.shape == ref.shape, what
    scale = float(np.abs(ref).max())
    err = float(np.abs(new.astype(np.float64) - ref).max())
    assert err <= 1e-5 * scale, f"{what}: max error {err:.3g} > 1e-5 x {scale:.3g}"


def _uniform(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)


def run_conv(x, weight, bias, g, stride, padding, groups):
    op = OPS["conv2d"]
    ctx = {"arg_batched": (True, True, True), "needs": (True, True, True)}
    out = op.batched_forward(ctx, x, weight, bias, sh=stride, sw=stride,
                             ph=padding, pw=padding, groups=groups)
    gx, gw, gb = op.batched_vjp(ctx, g)
    return out, gx, gw, gb


def run_max_pool(x, g, kernel, stride, padding):
    op = OPS["max_pool2d"]
    ctx = {"needs": (True,)}
    out = op.forward(ctx, x, kh=kernel, kw=kernel, sh=stride, sw=stride,
                     ph=padding, pw=padding)
    (gx,) = op.vjp(ctx, g)
    return out, gx


# ---------------------------------------------------------------------------
# conv
# ---------------------------------------------------------------------------

#: name -> (C_in, C_out, H, kernel, stride, padding, groups); square inputs
SIXCNN_CONVS = {
    "sixcnn-3to16-16x16": (3, 16, 16, 3, 1, 1, 1),
    "sixcnn-16to16-16x16": (16, 16, 16, 3, 1, 1, 1),
    "sixcnn-16to32-8x8": (16, 32, 8, 3, 1, 1, 1),
    "sixcnn-32to32-8x8": (32, 32, 8, 3, 1, 1, 1),
}
OTHER_CONVS = {
    "64to64-4x4": (64, 64, 4, 3, 1, 1, 1),
    "3x3-stride2": (16, 32, 8, 3, 2, 1, 1),
    "1x1": (16, 32, 8, 1, 1, 0, 1),
    "depthwise": (16, 16, 8, 3, 1, 1, 16),
    "groups2": (16, 32, 8, 3, 1, 1, 2),
    "5x5-stride2-pad2": (8, 16, 9, 5, 2, 2, 1),
    "3x3-7x7-nopad": (8, 16, 7, 3, 1, 0, 1),
    "256to256-2x2-on-2x2": (256, 256, 2, 2, 1, 0, 1),
}
CONV_GRID = [
    pytest.param(name, shape, batch, clients, id=f"{name}-n{batch}-b{clients}")
    for name, shape in {**SIXCNN_CONVS, **OTHER_CONVS}.items()
    for batch in (1, 8, 16)
    for clients in (1, 3, 16)
]


class TestConvAgainstReference:
    @pytest.mark.parametrize("name,shape,batch,clients", CONV_GRID)
    def test_matches_im2col_kernel(self, name, shape, batch, clients):
        c_in, c_out, size, kernel, stride, padding, groups = shape
        rng = np.random.default_rng(sum(map(ord, name)) + batch * 7 + clients)
        x = _uniform(rng, clients, batch, c_in, size, size)
        weight = _uniform(rng, clients, c_out, c_in // groups, kernel, kernel)
        bias = _uniform(rng, clients, c_out)
        osize = (size + 2 * padding - kernel) // stride + 1
        g = _uniform(rng, clients, batch, c_out, osize, osize)
        new = run_conv(x, weight, bias, g, stride, padding, groups)
        ref = ref_conv2d(x, weight, bias, g, stride, padding, groups)
        for what, a, r in zip(("out", "gx", "gw", "gb"), new, ref):
            if what in ("out", "gb") or GRADS_BITWISE and (
                    what == "gx" or name in SIXCNN_CONVS):
                assert_bitwise(a, r, f"{name} {what}")
            else:
                assert_close(a, r, f"{name} {what}")

    def test_serial_op_is_the_batched_kernel(self):
        """Dynamic autograd on an unbatched conv gives the client-axis-one
        slice of the reference, bit for bit."""
        rng = np.random.default_rng(3)
        x = _uniform(rng, 8, 16, 16, 16)
        weight = _uniform(rng, 16, 16, 3, 3)
        bias = _uniform(rng, 16)
        g = _uniform(rng, 8, 16, 16, 16)
        tensors = [Tensor(a.copy(), requires_grad=True) for a in (x, weight, bias)]
        out = F.conv2d(*tensors, stride=1, padding=1)
        out.backward(g)
        ref = ref_conv2d(x[None], weight[None], bias[None], g[None], 1, 1, 1)
        assert_bitwise(out.data, ref[0][0], "out")
        for tensor, r, what in zip(tensors, ref[1:], ("gx", "gw", "gb")):
            if what == "gb" or GRADS_BITWISE:
                assert_bitwise(tensor.grad, r[0], what)
            else:
                assert_close(tensor.grad, r[0], what)


# ---------------------------------------------------------------------------
# max-pool
# ---------------------------------------------------------------------------


def _tricky_windows(rng, n, c, h, w):
    """Random values with whole 2x2 windows replaced by ±0 ties, equal
    values and NaNs in every position."""
    x = _uniform(rng, n, c, h, w)
    specials = [
        [0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0],
        [-0.0, -0.0, -0.0, 0.0], [0.5, 0.5, 0.5, 0.5],
        [-1.0, -1.0, -1.0, -1.0], [np.nan, 1.0, 2.0, 3.0],
        [1.0, np.nan, 2.0, np.nan], [-1.0, 2.0, np.nan, 3.0],
        [-1.0, 2.0, 3.0, np.nan], [np.nan, np.nan, np.nan, np.nan],
        [2.0, 2.0, 1.0, 2.0], [-2.0, -1.0, -1.0, -3.0],
    ]
    picks = rng.choice(len(specials), size=(n, c, h // 2, w // 2))
    keep = rng.random((n, c, h // 2, w // 2)) < 0.5
    for oi in range(h // 2):
        for oj in range(w // 2):
            for ni in range(n):
                for ci in range(c):
                    if keep[ni, ci, oi, oj]:
                        continue
                    vals = specials[picks[ni, ci, oi, oj]]
                    x[ni, ci, 2 * oi : 2 * oi + 2, 2 * oj : 2 * oj + 2] = (
                        np.array(vals, dtype=np.float32).reshape(2, 2)
                    )
    # a NaN with its sign bit set, to tell NaN payloads apart
    x[0, 0, 0, 1] = -np.float32(np.nan)
    return x


class TestMaxPoolAgainstReference:
    @pytest.mark.parametrize("n,c,h,w", [(8, 16, 16, 16), (1, 3, 4, 6), (16, 32, 8, 8)])
    def test_2x2_matches_argmax_kernel(self, n, c, h, w):
        rng = np.random.default_rng(n * 31 + h)
        x = _tricky_windows(rng, n, c, h, w)
        g = _uniform(rng, n, c, h // 2, w // 2)
        g[..., 0] = -0.0  # col2im adds into +0, turning these into +0
        new = run_max_pool(x, g, 2, 2, 0)
        ref = ref_max_pool2d(x, g, 2, 2, 0)
        assert_bitwise(new[0], ref[0], "out")
        assert_bitwise(new[1], ref[1], "gx")

    @pytest.mark.parametrize("h,w", [(5, 4), (4, 7), (7, 7)])
    def test_odd_sizes_take_the_generic_path(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        x = _uniform(rng, 2, 3, h, w)
        g = _uniform(rng, 2, 3, h // 2, w // 2)
        with mock.patch.object(F, "im2col", wraps=F.im2col) as spy:
            new = run_max_pool(x, g, 2, 2, 0)
        assert spy.called
        ref = ref_max_pool2d(x, g, 2, 2, 0)
        assert_bitwise(new[0], ref[0], "out")
        assert_bitwise(new[1], ref[1], "gx")

    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (2, 1, 0)])
    def test_other_windows_keep_the_generic_path(self, kernel, stride, padding):
        rng = np.random.default_rng(kernel + stride)
        x = _uniform(rng, 2, 3, 6, 6)
        osize = (6 + 2 * padding - kernel) // stride + 1
        g = _uniform(rng, 2, 3, osize, osize)
        new = run_max_pool(x, g, kernel, stride, padding)
        ref = ref_max_pool2d(x, g, kernel, stride, padding)
        assert_bitwise(new[0], ref[0], "out")
        assert_bitwise(new[1], ref[1], "gx")


# ---------------------------------------------------------------------------
# window arguments
# ---------------------------------------------------------------------------


def _x():
    return Tensor(np.zeros((1, 2, 6, 6), dtype=np.float32))


BAD_WINDOWS = [
    pytest.param(lambda: F.conv2d(_x(), Tensor(np.zeros((2, 2, 3, 3), np.float32)),
                                  stride=0), "stride", id="conv2d-stride0"),
    pytest.param(lambda: F.conv2d(_x(), Tensor(np.zeros((2, 2, 0, 3), np.float32))),
                 "kernel_size", id="conv2d-kernel0"),
    pytest.param(lambda: F.conv2d(_x(), Tensor(np.zeros((2, 2, 3, 3), np.float32)),
                                  padding=-1), "padding", id="conv2d-negative-padding"),
    pytest.param(lambda: F.max_pool2d(_x(), 2, stride=0), "stride",
                 id="max_pool2d-stride0"),
    pytest.param(lambda: F.max_pool2d(_x(), 0), "kernel_size",
                 id="max_pool2d-kernel0"),
    pytest.param(lambda: F.max_pool2d(_x(), 3, 1, padding=-1), "padding",
                 id="max_pool2d-negative-padding"),
    pytest.param(lambda: F.max_pool2d(_x(), 2, 2, 2), "padding",
                 id="max_pool2d-padding-above-half-kernel"),
    pytest.param(lambda: F.avg_pool2d(_x(), 2, stride=0), "stride",
                 id="avg_pool2d-stride0"),
    pytest.param(lambda: F.avg_pool2d(_x(), 0), "kernel_size",
                 id="avg_pool2d-kernel0"),
    pytest.param(lambda: F.avg_pool2d(_x(), 3, 1, padding=-1), "padding",
                 id="avg_pool2d-negative-padding"),
    pytest.param(lambda: F.avg_pool2d(_x(), 2, 2, 2), "padding",
                 id="avg_pool2d-padding-above-half-kernel"),
]


class TestWindowArguments:
    @pytest.mark.parametrize("call,argument", BAD_WINDOWS)
    def test_rejected_naming_the_argument(self, call, argument):
        with pytest.raises(ValueError, match=argument):
            call()

    def test_padding_of_half_the_kernel_is_accepted(self):
        assert F.max_pool2d(_x(), 3, 1, padding=1).shape == (1, 2, 6, 6)
        assert F.avg_pool2d(_x(), 2, 2, padding=1).shape == (1, 2, 4, 4)
