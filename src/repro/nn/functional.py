"""Neural-network operators for the numpy autograd substrate.

Implements the fused / structured operations that the :class:`~repro.nn.tensor.Tensor`
method set does not cover: grouped 2-D convolution, max / average pooling,
batch normalisation, dropout, log-softmax and the cross-entropy losses used
throughout the FedKNOW reproduction (hard-label, soft-label / distillation,
and task-masked variants).

A convolution copies its padded input's windows once, into one column
buffer per call laid out ``(client, group, K, sample x L)``.  Its forward is
one GEMM per (client, sample, group) reading that buffer through a view,
the calls the im2col kernel before it issued, and so is a strided conv's
input gradient: ``Wᵀ @ g`` per (client, sample, group), folded by col2im.
Two GEMMs rely on properties of the BLAS instead.  The weight gradient is
``(K x N·L) @ gᵀ`` on the forward's buffer, the operands of the old
``g @ colsᵀ`` swapped.  A stride-1 conv's input gradient is one GEMM per
kernel offset for all samples of a client at once, folded into the padded
input by one contiguous add per offset (``_conv2d_input_grad``), which
relies on an element's rounding not depending on the rows and columns it
shares a product with.  On OpenBLAS 0.3.31's SkylakeX kernels both match
the old kernel bit for bit on the SixCNN shapes, and the input gradient
does on every shape ``tests/test_kernels.py`` and
``tests/test_functional.py`` try; on grouped, depthwise and odd shapes the
weight gradient stays within ``1e-5`` of its largest entry, and outputs
and bias gradients match bitwise.  The input gradient is computed a slice
of clients at a time into its ``(B, N, C, H, W)`` result, so its
temporaries hold about 1 MB or one client, whichever is more.  A 2x2 /
stride-2 max-pool on even maps compares four strided views; other pools
keep im2col and argmax.

Every operator is a registered :class:`~repro.nn.graph.OpDef`, so a model built
from these functions can be captured on a :class:`~repro.nn.graph.GraphTape`
and replayed without per-op Python dispatch.  The conv / pool / cross-entropy
set additionally provides batched implementations (leading client axis) that
are bit-identical per slice to the unbatched ops; the unbatched conv is the
batched kernel run on a client axis of one, so both issue the same GEMMs.
Two operators opt out of capture semantics: ``dropout`` raises under an active
tape (its mask would be baked stale into the program), and ``batch_norm`` is
capturable for serial replay (the running buffers are shared state, mutated in
place exactly as the dynamic op does) but has no batched implementation.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import graph, profiler
from .graph import register_op
from .tensor import Tensor, apply_op

# ---------------------------------------------------------------------------
# sliding windows: im2col / col2im
# ---------------------------------------------------------------------------


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _check_window(kh: int, kw: int, sh: int, sw: int, ph: int, pw: int) -> None:
    """Reject window arguments that describe no sliding window."""
    if kh < 1 or kw < 1:
        raise ValueError(f"kernel_size must be positive, got {(kh, kw)}")
    if sh < 1 or sw < 1:
        raise ValueError(f"stride must be positive, got {(sh, sw)}")
    if ph < 0 or pw < 0:
        raise ValueError(f"padding must be non-negative, got {(ph, pw)}")


def _check_pool_window(kh: int, kw: int, sh: int, sw: int, ph: int, pw: int) -> None:
    _check_window(kh, kw, sh, sw, ph, pw)
    if ph > kh // 2 or pw > kw // 2:
        # a wider border has windows made only of padding
        raise ValueError(
            f"padding {(ph, pw)} exceeds half the kernel_size {(kh, kw)}"
        )


def _out_size(
    h: int, w: int, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
) -> tuple[int, int]:
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution window ({kh}x{kw}, stride {sh}x{sw}) does not fit "
            f"input of spatial size {h}x{w} with padding {ph}x{pw}"
        )
    return oh, ow


def _pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """``x`` zero-padded on its last two axes (``x`` itself without padding)."""
    if not (ph or pw):
        return x
    h, w = x.shape[-2:]
    # pad into a buffer with only its border zeroed: cheaper than np.pad,
    # and unlike a calloc'd np.zeros buffer it keeps peak RSS where np.pad
    # had it
    padded = np.empty(x.shape[:-2] + (h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    padded[..., :ph, :] = 0
    padded[..., ph + h :, :] = 0
    padded[..., ph : ph + h, :pw] = 0
    padded[..., ph : ph + h, pw + w :] = 0
    padded[..., ph : ph + h, pw : pw + w] = x
    return padded


def _windows(
    x: np.ndarray, kh: int, kw: int, sh: int, sw: int, oh: int, ow: int
) -> np.ndarray:
    """A view of the sliding windows of ``x`` (``(..., H, W)``, padded):
    ``(..., kh, kw, OH, OW)``."""
    *lead, s_h, s_w = x.strides
    return as_strided(
        x, x.shape[:-2] + (kh, kw, oh, ow),
        (*lead, s_h, s_w, sh * s_h, sw * s_w), writeable=False,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
) -> tuple[np.ndarray, int, int]:
    """Unfold sliding windows of ``x`` into columns.

    Returns an array of shape ``(N, C*kh*kw, OH*OW)`` whose second axis is laid
    out as ``(channel, kernel_row, kernel_col)``, plus the output spatial size.
    """
    n, c, h, w = x.shape
    oh, ow = _out_size(h, w, kh, kw, sh, sw, ph, pw)
    cols = np.empty((n, c * kh * kw, oh * ow), dtype=x.dtype)
    cols.reshape(n, c, kh, kw, oh, ow)[...] = _windows(
        _pad(x, ph, pw), kh, kw, sh, sw, oh, ow
    )
    return cols, oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    ph: int,
    pw: int,
) -> np.ndarray:
    """Fold columns produced by :func:`im2col` back into an image (adds overlaps)."""
    n, c, h, w = x_shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * oh
        for j in range(kw):
            padded[:, :, i:i_end:sh, j : j + sw * ow : sw] += cols[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _conv2d_bfwd(ctx, *arrays, sh, sw, ph, pw, groups):
    x, weight = arrays[0], arrays[1]
    bias = arrays[2] if len(arrays) > 2 else None
    ab = ctx["arg_batched"]
    if not ab[0] or not ab[1]:
        raise NotImplementedError(
            "batched conv2d requires both the input and the weight to carry "
            "the client axis (constant/frozen weights are not supported)"
        )
    b, n, c, h, w = x.shape
    c_out, c_in_g, kh, kw = weight.shape[1:]
    oh, ow = _out_size(h, w, kh, kw, sh, sw, ph, pw)
    l = oh * ow
    cog = c_out // groups
    k = c_in_g * kh * kw
    # the call's one column buffer, (client, group, K, sample x L): a
    # single copy of the padded input's windows
    windows = _windows(_pad(x, ph, pw), kh, kw, sh, sw, oh, ow)
    windows = windows.reshape(b, n, groups, c_in_g, kh, kw, oh, ow)
    cols = np.empty((b, groups, k, n * l), dtype=x.dtype)
    cols.reshape(b, groups, c_in_g, kh, kw, n, oh, ow)[...] = windows.transpose(
        0, 2, 3, 4, 5, 1, 6, 7
    )
    w_g = weight.reshape(b, groups, cog, k)
    # (B,1,G,CoG,K) @ (B,N,G,K,L) -> (B,N,G,CoG,L): one GEMM per
    # (client, sample, group), whatever B is, reading the columns in place
    out = np.matmul(
        w_g[:, None], cols.reshape(b, groups, k, n, l).transpose(0, 3, 1, 2, 4)
    )
    out = out.reshape(b, n, c_out, oh, ow)
    if bias is not None:
        bshape = (b, 1, c_out, 1, 1) if ab[2] else (1, 1, c_out, 1, 1)
        out += bias.reshape(bshape)
    if profiler.is_profiling():
        profiler.record_op(2.0 * b * n * c_out * l * k, float(out.size))
    ctx["cols"] = cols
    ctx["w_g"] = w_g
    ctx["dims"] = (b, n, c, h, w, groups, cog, oh, ow, kh, kw)
    ctx["conv"] = (sh, sw, ph, pw)
    ctx["w_shape"] = weight.shape
    return out


#: A conv's input gradient runs over slices of whole clients, as many as
#: keep the slice's temporaries within this many bytes (at least one).  One
#: client at a time bounds memory the same way on model-sized inputs, but
#: on tiny ones (64 clients, 3x8x8, batch 1) its per-client numpy calls made
#: the whole batched round 1.29x the CPU time of the all-clients kernel
#: (median of 41 interleaved pairs); 1 MB slices read 0.95x.
_INPUT_GRAD_SLICE_BYTES = 1 << 20

#: The stride-1 input gradient pads its products with zero columns to a
#: multiple of this width.  OpenBLAS 0.3.31's SkylakeX SGEMM rounds the last
#: columns of a small product (M·N·K up to about 100³, dot products of 32
#: terms or more) unlike the others when its width is 1-8 past a multiple
#: of 16; padded, every real column sits in a full block of 16.
_GEMM_COLUMNS = 16


def _conv2d_input_grad(w_g, g, dims, conv):
    """A conv's input gradient, ``(B, N, C, H, W)``, a slice of clients at
    a time.

    ``w_g`` is the forward's ``(B, G, CoG, C/G·kh·kw)`` weight.  On a
    stride-1 conv the gradient is one GEMM per kernel offset ``(i, j)``
    and slice, ``W[:, :, i, j]ᵀ @ g`` for all samples at once: ``(C/G x
    CoG) @ (CoG x N·rows·width)`` per (client, group), with each sample's
    ``g`` in the top-left corner of a zeroed ``rows x width`` frame.
    Flattened over (client, channel, sample, row, column), that product
    lands on the padded input shifted by ``s = i·width + j``, so the fold
    is one contiguous add per offset, ``fold[s:] += prod[:T - s]``.  A
    frame is the padded input without its bottom and right borders: those
    positions are cropped away, so the next frame's top border and the
    next row's left border stand in for them.

    The bits are im2col's.  Each product element contracts over the output
    channels as im2col's per-(client, sample, group) ``Wᵀ @ g`` did, and
    each input position receives the same products in im2col's (i, j)
    order, into a fold that starts at +0.  The shifted runs also carry the
    frames' zeros onto neighbouring rows, samples and channels (and real
    products onto border positions, which are cropped); but ``Wᵀ @ 0`` is
    ±0 for finite weights, and adding ±0 to a sum that started at +0
    leaves it as it was.  Strided convs keep im2col's per-sample GEMM and
    col2im, and so do convs where one of the two products is a GEMV and
    the other a GEMM, which round differently: one-column outputs
    (``oh·ow == 1``), and one input channel per group feeding several
    outputs.

    A slice holds as many clients as keep its frames, product and fold
    within ``_INPUT_GRAD_SLICE_BYTES`` (at least one).
    """
    b, n, c, h, w, groups, cog, oh, ow, kh, kw = dims
    sh, sw, ph, pw = conv
    c_g = c // groups
    gx = np.empty((b, n, c, h, w), dtype=g.dtype)
    if sh != 1 or sw != 1 or oh * ow == 1 or (c_g == 1 and cog > 1):
        w_t = w_g[:, None].swapaxes(-1, -2)
        padded_size = (h + 2 * ph) * (w + 2 * pw)
        client_bytes = g.itemsize * n * c * (kh * kw * oh * ow + padded_size)
        step = max(1, min(b, _INPUT_GRAD_SLICE_BYTES // client_bytes))
        g_g = g.reshape(b, n, groups, cog, oh * ow)
        for lo in range(0, b, step):
            k = min(step, b - lo)
            grad_cols = np.matmul(w_t[lo : lo + k], g_g[lo : lo + k])
            grad_cols = grad_cols.reshape(k * n, c * kh * kw, oh * ow)
            folded = col2im(grad_cols, (k * n, c, h, w), kh, kw, sh, sw, ph, pw)
            gx[lo : lo + k] = folded.reshape(k, n, c, h, w)
        return gx
    # a frame holds the output and the input behind its top and left borders
    rows, width = max(oh, h + ph), max(ow, w + pw)
    frames = n * rows * width
    cols = -(-frames // _GEMM_COLUMNS) * _GEMM_COLUMNS
    client_bytes = g.itemsize * cols * (groups * cog + 2 * c)
    step = max(1, min(b, _INPUT_GRAD_SLICE_BYTES // client_bytes))
    # offset-major weight: w_off[:, i * kw + j] is (B, G, C/G, CoG)
    w_off = w_g.reshape(b, groups, cog, c_g, kh * kw).transpose(0, 4, 1, 3, 2)
    w_off = np.ascontiguousarray(w_off)
    grid = np.empty((step, groups * cog, cols), dtype=g.dtype)
    grid[..., frames:] = 0
    grid_frames = grid[..., :frames].reshape(step, groups * cog, n, rows, width)
    grid_frames[..., oh:, :] = 0
    grid_frames[..., :oh, ow:] = 0
    prod = np.empty((step, groups, c_g, cols), dtype=g.dtype)
    fold = np.empty((step, c, cols), dtype=g.dtype)
    fold_frames = fold[..., :frames].reshape(step, c, n, rows, width)
    for lo in range(0, b, step):
        k = min(step, b - lo)
        grid_frames[:k, ..., :oh, :ow] = g[lo : lo + k].transpose(0, 2, 1, 3, 4)
        grid_k = grid[:k].reshape(k, groups, cog, cols)
        prod_k = prod[:k]
        prod_flat = prod_k.reshape(-1)
        fold_flat = fold[:k].reshape(-1)
        fold_flat.fill(0)
        total = fold_flat.size
        for i in range(kh):
            for j in range(kw):
                s = i * width + j
                np.matmul(w_off[lo : lo + k, i * kw + j], grid_k, out=prod_k)
                fold_flat[s:] += prod_flat[: total - s]
        crop = fold_frames[:k, ..., ph : ph + h, pw : pw + w]
        gx[lo : lo + k] = crop.transpose(0, 2, 1, 3, 4)
    return gx


def _conv2d_bvjp(ctx, g):
    needs = ctx["needs"]
    b, n, c, h, w, groups, cog, oh, ow, kh, kw = dims = ctx["dims"]
    l = oh * ow
    g_g = g.reshape(b, n, groups, cog, l)
    gx = gw = gb = None
    if len(needs) > 2 and needs[2]:
        gb = g.sum(axis=(1, 3, 4))
    if needs[1]:
        # contract over the merged (N, L) axis in one GEMM per (client,
        # group), (K x N·L) @ (N·L x CoG) on the forward's columns: summing
        # per-sample partials instead would round differently, and so does
        # passing gᵀ as a transposed view instead of a contiguous copy
        g_t = np.ascontiguousarray(g_g.transpose(0, 2, 1, 4, 3))
        g_t = g_t.reshape(b, groups, n * l, cog)
        gw = np.matmul(ctx["cols"], g_t)
        gw = gw.swapaxes(-1, -2).reshape(ctx["w_shape"])
    if needs[0]:
        gx = _conv2d_input_grad(ctx["w_g"], g, dims, ctx["conv"])
    if len(needs) > 2:
        return (gx, gw, gb)
    return (gx, gw)


def _conv2d_fwd(ctx, *arrays, sh, sw, ph, pw, groups):
    # the batched kernel on a client axis of one: serial and batched conv
    # issue the same per-(sample, group) GEMMs, hence agree to the bit
    ctx["arg_batched"] = (True,) * len(arrays)
    out = _conv2d_bfwd(
        ctx, *(a[None] for a in arrays), sh=sh, sw=sw, ph=ph, pw=pw, groups=groups
    )
    return out[0]


def _conv2d_vjp(ctx, g):
    return tuple(
        None if grad is None else grad[0] for grad in _conv2d_bvjp(ctx, g[None])
    )


_CONV2D = register_op(
    "conv2d", _conv2d_fwd, _conv2d_vjp, batched_forward=_conv2d_bfwd,
    batched_vjp=_conv2d_bvjp, batch_exact=True,
)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride=1,
    padding=0,
    groups: int = 1,
) -> Tensor:
    """Grouped 2-D convolution.

    ``x`` has shape ``(N, C, H, W)``; ``weight`` has shape
    ``(C_out, C_in // groups, kh, kw)``.  Depthwise convolution is the special
    case ``groups == C_in`` used by MobileNetV2 / ShuffleNetV2.
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    _, c, _, _ = x.shape
    c_out, c_in_g, kh, kw = weight.shape
    _check_window(kh, kw, sh, sw, ph, pw)
    if c != c_in_g * groups:
        raise ValueError(
            f"input has {c} channels but weight expects {c_in_g * groups} "
            f"({c_in_g} per group x {groups} groups)"
        )
    if c_out % groups:
        raise ValueError(f"output channels {c_out} not divisible by groups {groups}")
    args = (x, weight) if bias is None else (x, weight, bias)
    return apply_op(_CONV2D, args, sh=sh, sw=sw, ph=ph, pw=pw, groups=groups)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

#: The four window positions of a 2x2 pool, in im2col's (i, j) order.
_QUADRANTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _max_pool2x2_fwd(ctx, x):
    """2x2 / stride-2 max pool over the four window positions as views.

    A later position replaces the running maximum where it is not ``<=``
    it and the maximum is not NaN: argmax's choice (the first maximum, or
    the first NaN), so a ±0 tie keeps the first zero as the im2col path
    does.  Values are selected on their bits, an exact copy that is
    cheaper than ``np.where``.
    """
    bits = np.dtype(f"u{x.itemsize}")
    out = x[:, :, 0::2, 0::2].copy()
    out_bits = out.view(bits)
    arg = np.zeros(out.shape, dtype=np.uint8)
    for q in (1, 2, 3):
        i, j = _QUADRANTS[q]
        v = np.ascontiguousarray(x[:, :, i::2, j::2])
        take = (~(v <= out) & (out == out)).view(np.uint8)
        out_bits ^= (out_bits ^ v.view(bits)) & np.negative(take, dtype=bits)
        np.maximum(arg, take * np.uint8(q), out=arg)
    ctx["arg"] = arg
    ctx["x_shape"] = x.shape
    return out


def _max_pool2x2_vjp(ctx, g):
    bits = np.dtype(f"u{g.itemsize}")
    # each window's winner gets +0 + g and the rest +0, as col2im adds the
    # window gradients into zeros
    g0 = (g + 0).view(bits)
    gx = np.empty(ctx["x_shape"], dtype=bits)
    for q, (i, j) in enumerate(_QUADRANTS):
        mask = np.negative((ctx["arg"] == q).view(np.uint8), dtype=bits)
        np.bitwise_and(g0, mask, out=gx[:, :, i::2, j::2])
    return (gx.view(g.dtype),)


def _max_pool2d_fwd(ctx, x, *, kh, kw, sh, sw, ph, pw):
    n, c, h, w = x.shape
    if (kh, kw, sh, sw, ph, pw) == (2, 2, 2, 2, 0, 0) and h % 2 == 0 and w % 2 == 0:
        return _max_pool2x2_fwd(ctx, x)
    data = x
    if ph or pw:
        pad_value = np.finfo(data.dtype).min
        data = np.pad(
            data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=pad_value
        )
    cols, oh, ow = im2col(data, kh, kw, sh, sw, 0, 0)
    windows = cols.reshape(n, c, kh * kw, oh * ow)
    arg = windows.argmax(axis=2)
    out = np.take_along_axis(windows, arg[:, :, None, :], axis=2)[:, :, 0, :]
    ctx["arg"] = arg
    ctx["windows_shape"] = windows.shape
    ctx["dtype"] = windows.dtype
    ctx["dims"] = (n, c, oh, ow, kh, kw, sh, sw, ph, pw)
    ctx["padded_shape"] = data.shape
    ctx["x_shape"] = x.shape
    return out.reshape(n, c, oh, ow)


def _max_pool2d_vjp(ctx, g):
    if "dims" not in ctx:  # the forward took the 2x2 path
        return _max_pool2x2_vjp(ctx, g)
    n, c, oh, ow, kh, kw, sh, sw, ph, pw = ctx["dims"]
    x_shape = ctx["x_shape"]
    grad_windows = np.zeros(ctx["windows_shape"], dtype=ctx["dtype"])
    np.put_along_axis(
        grad_windows, ctx["arg"][:, :, None, :], g.reshape(n, c, 1, oh * ow), axis=2
    )
    grad_cols = grad_windows.reshape(n, c * kh * kw, oh * ow)
    grad_padded = col2im(grad_cols, ctx["padded_shape"], kh, kw, sh, sw, 0, 0)
    if ph or pw:
        grad_padded = grad_padded[:, :, ph : ph + x_shape[2], pw : pw + x_shape[3]]
    return (grad_padded,)


def _max_pool2d_bfwd(ctx, x, *, kh, kw, sh, sw, ph, pw):
    b = x.shape[0]
    sub: dict = {}
    out = _max_pool2d_fwd(
        sub, x.reshape((-1,) + x.shape[2:]), kh=kh, kw=kw, sh=sh, sw=sw, ph=ph, pw=pw
    )
    ctx["sub"] = sub
    ctx["b"] = b
    return out.reshape((b, -1) + out.shape[1:])


def _max_pool2d_bvjp(ctx, g):
    gg = _max_pool2d_vjp(ctx["sub"], g.reshape((-1,) + g.shape[2:]))[0]
    return (gg.reshape((ctx["b"], -1) + gg.shape[1:]),)


_MAX_POOL2D = register_op(
    "max_pool2d", _max_pool2d_fwd, _max_pool2d_vjp,
    batched_forward=_max_pool2d_bfwd, batched_vjp=_max_pool2d_bvjp,
    batch_exact=True,
)


def max_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    """Max pooling over spatial windows."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    ph, pw = _pair(padding)
    _check_pool_window(kh, kw, sh, sw, ph, pw)
    return apply_op(_MAX_POOL2D, (x,), kh=kh, kw=kw, sh=sh, sw=sw, ph=ph, pw=pw)


def _avg_pool2d_fwd(ctx, x, *, kh, kw, sh, sw, ph, pw):
    n, c = x.shape[0], x.shape[1]
    cols, oh, ow = im2col(x, kh, kw, sh, sw, ph, pw)
    windows = cols.reshape(n, c, kh * kw, oh * ow)
    out = windows.mean(axis=2).reshape(n, c, oh, ow)
    ctx["dims"] = (n, c, oh, ow, kh, kw, sh, sw, ph, pw)
    ctx["x_shape"] = x.shape
    return out


def _avg_pool2d_vjp(ctx, g):
    n, c, oh, ow, kh, kw, sh, sw, ph, pw = ctx["dims"]
    scale = 1.0 / (kh * kw)
    g_flat = (g.reshape(n, c, 1, oh * ow) * scale).astype(g.dtype)
    grad_windows = np.broadcast_to(g_flat, (n, c, kh * kw, oh * ow))
    grad_cols = np.ascontiguousarray(grad_windows).reshape(n, c * kh * kw, oh * ow)
    return (col2im(grad_cols, ctx["x_shape"], kh, kw, sh, sw, ph, pw),)


def _avg_pool2d_bfwd(ctx, x, *, kh, kw, sh, sw, ph, pw):
    b = x.shape[0]
    sub: dict = {}
    out = _avg_pool2d_fwd(
        sub, x.reshape((-1,) + x.shape[2:]), kh=kh, kw=kw, sh=sh, sw=sw, ph=ph, pw=pw
    )
    ctx["sub"] = sub
    ctx["b"] = b
    return out.reshape((b, -1) + out.shape[1:])


def _avg_pool2d_bvjp(ctx, g):
    gg = _avg_pool2d_vjp(ctx["sub"], g.reshape((-1,) + g.shape[2:]))[0]
    return (gg.reshape((ctx["b"], -1) + gg.shape[1:]),)


_AVG_POOL2D = register_op(
    "avg_pool2d", _avg_pool2d_fwd, _avg_pool2d_vjp,
    batched_forward=_avg_pool2d_bfwd, batched_vjp=_avg_pool2d_bvjp,
    batch_exact=True,
)


def avg_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    """Average pooling over spatial windows."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    ph, pw = _pair(padding)
    _check_pool_window(kh, kw, sh, sw, ph, pw)
    return apply_op(_AVG_POOL2D, (x,), kh=kh, kw=kw, sh=sh, sw=sw, ph=ph, pw=pw)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Adaptive average pooling to a single spatial location, flattened."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------


def _batch_norm_fwd(
    ctx, x, gamma, beta, *, running_mean, running_var, training, momentum, eps
):
    if x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {x.ndim}-D")

    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        count = x.size // x.shape[1]
        unbiased = var * count / max(count - 1, 1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    out = gamma.reshape(shape) * x_hat + beta.reshape(shape)
    ctx["x_hat"] = x_hat
    ctx["inv_std"] = inv_std
    ctx["gamma"] = gamma
    ctx["axes"] = axes
    ctx["shape"] = shape
    ctx["training"] = training
    ctx["count"] = x.size // x.shape[1]
    return out.astype(x.dtype)


def _batch_norm_vjp(ctx, g):
    needs = ctx["needs"]
    axes = ctx["axes"]
    shape = ctx["shape"]
    x_hat = ctx["x_hat"]
    inv_std = ctx["inv_std"]
    gx = ggamma = gbeta = None
    if needs[2]:
        gbeta = g.sum(axis=axes)
    if needs[1]:
        ggamma = (g * x_hat).sum(axis=axes)
    if needs[0]:
        g_hat = g * ctx["gamma"].reshape(shape)
        if ctx["training"]:
            count = ctx["count"]
            sum_g = g_hat.sum(axis=axes, keepdims=True)
            sum_gx = (g_hat * x_hat).sum(axis=axes, keepdims=True)
            grad_x = (
                inv_std.reshape(shape)
                / count
                * (count * g_hat - sum_g - x_hat * sum_gx)
            )
        else:
            grad_x = g_hat * inv_std.reshape(shape)
        gx = grad_x.astype(g.dtype)
    return (gx, ggamma, gbeta)


_BATCH_NORM = register_op("batch_norm", _batch_norm_fwd, _batch_norm_vjp)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over the channel axis for 2-D or 4-D inputs.

    ``running_mean`` / ``running_var`` are plain numpy buffers updated in place
    during training (they carry no gradient).  Under capture the buffers and
    the ``training`` flag are baked into the program, so a replay updates the
    same buffers the dynamic op would; the op has no batched implementation
    (per-client running state cannot share one contraction).
    """
    return apply_op(
        _BATCH_NORM,
        (x, gamma, beta),
        running_mean=running_mean,
        running_var=running_var,
        training=training,
        momentum=momentum,
        eps=eps,
    )


# ---------------------------------------------------------------------------
# regularisation
# ---------------------------------------------------------------------------


def _dropout_fwd(ctx, x, *, mask):
    ctx["mask"] = mask
    return x * mask


def _dropout_vjp(ctx, g):
    return (g * ctx["mask"],)


_DROPOUT = register_op("dropout", _dropout_fwd, _dropout_vjp)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: active only in training mode."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if graph.active_tape() is not None:
        raise NotImplementedError(
            "dropout cannot be captured on a GraphTape: the random mask would "
            "be baked into the replayed program; capture in eval mode or use "
            "a model without dropout"
        )
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return apply_op(_DROPOUT, (x,), mask=mask)


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _log_softmax_fwd(ctx, x):
    out = _log_softmax(x)
    ctx["softmax"] = np.exp(out)
    return out


def _log_softmax_vjp(ctx, g):
    return (g - ctx["softmax"] * g.sum(axis=1, keepdims=True),)


_LOG_SOFTMAX = register_op("log_softmax", _log_softmax_fwd, _log_softmax_vjp)


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax (over axis 1)."""
    return apply_op(_LOG_SOFTMAX, (x,))


def _softmax_fwd(ctx, x):
    out = np.exp(_log_softmax(x))
    ctx["out"] = out
    return out


def _softmax_vjp(ctx, g):
    out = ctx["out"]
    dot = (g * out).sum(axis=1, keepdims=True)
    return (out * (g - dot),)


_SOFTMAX = register_op("softmax", _softmax_fwd, _softmax_vjp)


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax (over axis 1)."""
    return apply_op(_SOFTMAX, (x,))


def _apply_class_mask(logits: np.ndarray, class_mask: np.ndarray | None) -> np.ndarray:
    if class_mask is None:
        return logits
    masked = np.where(class_mask[None, :], logits, np.float32(-1e9))
    return masked.astype(logits.dtype)


def _cross_entropy_fwd(ctx, *arrays):
    logits, labels = arrays[0], arrays[1]
    class_mask = arrays[2] if len(arrays) > 2 else None
    n = logits.shape[0]
    masked = _apply_class_mask(logits, class_mask)
    logp = _log_softmax(masked)
    loss = -logp[np.arange(n), labels].mean()
    ctx["probs"] = np.exp(logp)
    ctx["labels"] = labels
    ctx["mask"] = class_mask
    ctx["n"] = n
    ctx["dtype"] = logits.dtype
    return np.asarray(loss, dtype=logits.dtype)


def _cross_entropy_vjp(ctx, g):
    n = ctx["n"]
    grad = ctx["probs"].copy()
    grad[np.arange(n), ctx["labels"]] -= 1.0
    grad *= g / n
    if ctx["mask"] is not None:
        grad[:, ~ctx["mask"]] = 0.0
    return (grad.astype(ctx["dtype"]),) + (None,) * (len(ctx["needs"]) - 1)


def _cross_entropy_bfwd(ctx, *arrays):
    logits, labels = arrays[0], arrays[1]
    class_mask = arrays[2] if len(arrays) > 2 else None
    n = logits.shape[1]
    if class_mask is not None:
        mask3 = class_mask[:, None, :] if ctx["arg_batched"][2] else class_mask[None, None, :]
        masked = np.where(mask3, logits, np.float32(-1e9)).astype(logits.dtype)
    else:
        masked = logits
    shifted = masked - masked.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0]
    loss = -picked.mean(axis=-1)
    ctx["probs"] = np.exp(logp)
    ctx["labels"] = labels
    ctx["mask"] = class_mask
    ctx["mask_batched"] = ctx["arg_batched"][2] if class_mask is not None else False
    ctx["n"] = n
    ctx["dtype"] = logits.dtype
    return loss.astype(logits.dtype)


def _cross_entropy_bvjp(ctx, g):
    n = ctx["n"]
    labels = ctx["labels"]
    grad = ctx["probs"].copy()
    idx = labels[..., None]
    np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=-1) - 1.0, axis=-1)
    grad *= (g / n)[:, None, None]
    mask = ctx["mask"]
    if mask is not None:
        mask3 = mask[:, None, :] if ctx["mask_batched"] else mask[None, None, :]
        grad = np.where(mask3, grad, np.float32(0.0))
    return (grad.astype(ctx["dtype"]),) + (None,) * (len(ctx["needs"]) - 1)


_CROSS_ENTROPY = register_op(
    "cross_entropy", _cross_entropy_fwd, _cross_entropy_vjp,
    batched_forward=_cross_entropy_bfwd, batched_vjp=_cross_entropy_bvjp,
    batch_exact=True,
)


def cross_entropy(
    logits: Tensor,
    labels,
    class_mask=None,
) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer ``labels``.

    ``class_mask`` (bool, shape ``(num_classes,)``) restricts the softmax to a
    task's classes — the task-incremental evaluation protocol used throughout
    the paper's benchmarks.  ``labels`` / ``class_mask`` may be passed as
    (non-grad) tensors so a capture treats them as per-replay inputs.
    """
    labels_arr = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
    n = logits.shape[0]
    if labels_arr.shape != (n,):
        raise ValueError(f"labels shape {labels_arr.shape} does not match batch {n}")
    if not isinstance(labels, Tensor):
        labels = Tensor(labels_arr, dtype=labels_arr.dtype)
    if class_mask is None:
        return apply_op(_CROSS_ENTROPY, (logits, labels))
    if not isinstance(class_mask, Tensor):
        mask_arr = np.asarray(class_mask)
        class_mask = Tensor(mask_arr, dtype=mask_arr.dtype)
    return apply_op(_CROSS_ENTROPY, (logits, labels, class_mask))


def _soft_cross_entropy_fwd(ctx, *arrays):
    logits = arrays[0]
    target_probs = arrays[1].astype(logits.dtype, copy=False)
    class_mask = arrays[2] if len(arrays) > 2 else None
    n = logits.shape[0]
    masked = _apply_class_mask(logits, class_mask)
    logp = _log_softmax(masked)
    if class_mask is not None:
        loss = -(target_probs[:, class_mask] * logp[:, class_mask]).sum() / n
    else:
        loss = -(target_probs * logp).sum() / n
    ctx["probs"] = np.exp(logp)
    ctx["target_probs"] = target_probs
    ctx["mask"] = class_mask
    ctx["n"] = n
    ctx["dtype"] = logits.dtype
    return np.asarray(loss, dtype=logits.dtype)


def _soft_cross_entropy_vjp(ctx, g):
    grad = (ctx["probs"] - ctx["target_probs"]) * (g / ctx["n"])
    if ctx["mask"] is not None:
        grad[:, ~ctx["mask"]] = 0.0
    return (grad.astype(ctx["dtype"]),) + (None,) * (len(ctx["needs"]) - 1)


_SOFT_CROSS_ENTROPY = register_op(
    "soft_cross_entropy", _soft_cross_entropy_fwd, _soft_cross_entropy_vjp
)


def soft_cross_entropy(
    logits: Tensor,
    target_probs,
    class_mask=None,
) -> Tensor:
    """Mean cross-entropy against a soft target distribution.

    This is the loss of FedKNOW's gradient restorer (Eq. 2 of the paper): the
    target is the probability distribution predicted by a past task's retained
    knowledge, and the gradient ``softmax(logits) - target`` points along the
    update direction that keeps the current model consistent with that task.
    Like :func:`cross_entropy`'s labels, ``target_probs`` / ``class_mask``
    may be passed as (non-grad) tensors so a capture treats them as
    per-replay inputs; targets are computed in the logits' dtype.
    """
    if not isinstance(target_probs, Tensor):
        arr = np.asarray(target_probs, dtype=logits.data.dtype)
        target_probs = Tensor(arr, dtype=arr.dtype)
    if target_probs.shape != logits.shape:
        raise ValueError(
            f"target shape {target_probs.shape} != logits shape {logits.shape}"
        )
    if class_mask is None:
        return apply_op(_SOFT_CROSS_ENTROPY, (logits, target_probs))
    if not isinstance(class_mask, Tensor):
        mask_arr = np.asarray(class_mask)
        class_mask = Tensor(mask_arr, dtype=mask_arr.dtype)
    return apply_op(_SOFT_CROSS_ENTROPY, (logits, target_probs, class_mask))


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=pred.data.dtype)
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def accuracy(
    logits: np.ndarray, labels: np.ndarray, class_mask: np.ndarray | None = None
) -> float:
    """Top-1 accuracy of raw ``logits`` against integer ``labels``."""
    logits = np.asarray(logits)
    masked = _apply_class_mask(logits, class_mask)
    pred = masked.argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())
