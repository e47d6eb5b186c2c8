"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` deep-learning substrate
that replaces PyTorch in this reproduction.  A :class:`Tensor` wraps a numpy
array and records the operations applied to it; calling :meth:`Tensor.backward`
on a scalar result propagates gradients to every tensor created with
``requires_grad=True``.

Every operation is a registered :class:`~repro.nn.graph.OpDef` — a
shape-polymorphic ``forward(ctx, *arrays)`` / ``vjp(ctx, g)`` pair over raw
numpy arrays — and :func:`apply_op` is the single dispatch point: it runs
the forward, wires one generic backward hook onto the dynamic tape, and,
when a :class:`~repro.nn.graph.GraphTape` is capturing on this thread,
records an op node so the same graph can later be replayed (or replayed
batched across clients) without rebuilding Tensors or closures.  Structured
ops — convolution, pooling, the fused losses — register themselves the same
way from :mod:`repro.nn.functional`.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

from . import graph, profiler
from .graph import _unbroadcast

DEFAULT_DTYPE = np.float32


class _GradMode(threading.local):
    """Per-thread grad mode, so a caller's threads can enter/leave
    ``no_grad`` without clobbering each other's tape."""

    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (used for eval)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded on the autograd tape."""
    return _grad_mode.enabled


class Tensor:
    """A numpy-backed array with reverse-mode autograd support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # ------------------------------------------------------------------
    # autograd machinery
    # ------------------------------------------------------------------
    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph.

        Under an active capture the cut is recorded as a ``stops_grad``
        identity node, so replayed graphs stop gradients at the same spot;
        either way the returned tensor shares ``data`` without copying.
        """
        if graph.active_tape() is not None:
            return apply_op(_DETACH, (self,))
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer."""
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.accumulate_grad(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        return apply_op(_ADD, (self, other))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply_op(_NEG, (self,))

    def __sub__(self, other) -> "Tensor":
        return apply_op(_SUB, (self, other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return apply_op(_MUL, (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return apply_op(_DIV, (self, other))

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        return apply_op(_POW, (self,), exponent=exponent)

    def __matmul__(self, other) -> "Tensor":
        return apply_op(_MATMUL, (self, other))

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        return apply_op(_RELU, (self,))

    def sigmoid(self) -> "Tensor":
        return apply_op(_SIGMOID, (self,))

    def tanh(self) -> "Tensor":
        return apply_op(_TANH, (self,))

    def exp(self) -> "Tensor":
        return apply_op(_EXP, (self,))

    def log(self) -> "Tensor":
        return apply_op(_LOG, (self,))

    def sqrt(self) -> "Tensor":
        return apply_op(_SQRT, (self,))

    def abs(self) -> "Tensor":
        return apply_op(_ABS, (self,))

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_SUM, (self,), axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_MAX, (self,), axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op(_RESHAPE, (self,), shape=shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        axes = tuple(a % self.ndim for a in axes)
        return apply_op(_TRANSPOSE, (self,), axes=axes)

    def flatten(self) -> "Tensor":
        """Flatten all dimensions except the leading (batch) one."""
        return self.reshape(self.shape[0], -1)

    def __getitem__(self, index) -> "Tensor":
        return apply_op(_GETITEM, (self,), index=index)


# ----------------------------------------------------------------------
# the single op dispatch point
# ----------------------------------------------------------------------
def apply_op(op: graph.OpDef | str, args: Sequence, **params) -> Tensor:
    """Execute a registered op on tensors (coercing raw values).

    Runs the op's forward on the raw arrays, wires the generic backward
    hook when gradients flow, and records an op node on the thread's
    active :class:`~repro.nn.graph.GraphTape` (if any).  This is the only
    place ops execute, so replacing dispatch (replay) replaces everything.
    """
    if isinstance(op, str):
        op = graph.OPS[op]
    tensors = tuple(Tensor._coerce(a) for a in args)
    ctx = {"needs": tuple(t.requires_grad for t in tensors)}
    out_data = op.forward(ctx, *(t.data for t in tensors), **params)
    if profiler.is_profiling():
        profiler.record_dispatch()
    requires = (
        _grad_mode.enabled
        and not op.stops_grad
        and any(t.requires_grad for t in tensors)
    )
    out = Tensor(out_data, requires_grad=requires, dtype=out_data.dtype)
    tape = graph.active_tape()
    if tape is not None:
        tape.record(op, tensors, params, out)
    if requires:
        out._parents = tuple(t for t in tensors if t.requires_grad)

        def _backward(g: np.ndarray, op=op, ctx=ctx, tensors=tensors) -> None:
            for t, tg in zip(tensors, op.vjp(ctx, g)):
                if tg is not None and t.requires_grad:
                    t.accumulate_grad(tg)

        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# batched-broadcast helper
# ----------------------------------------------------------------------
def _align_batched(ctx, arrays):
    """Reshape batched operands so the leading client axis lines up.

    Numpy broadcasting aligns from the trailing side, so a batched
    ``(B, o)`` bias meeting a batched ``(B, n, o)`` product must become
    ``(B, 1, o)``; unbatched constants keep their natural trailing
    alignment.
    """
    out_nd = ctx["out_ndim"] + 1
    b = ctx["B"]
    aligned = []
    for arr, is_batched in zip(arrays, ctx["arg_batched"]):
        if is_batched and arr.ndim < out_nd:
            arr = arr.reshape((b,) + (1,) * (out_nd - arr.ndim) + arr.shape[1:])
        aligned.append(arr)
    return aligned


def _binary_grads(ctx, raw_a, raw_b):
    """Unbroadcast batched binary-op grads back to the runtime arg shapes.

    A batched argument's gradient is summed as the unbatched op's
    ``_unbroadcast`` sums it, per client: first the leading axes the op
    broadcast it over, then its size-1 axes, so each slice rounds alike.
    """
    out_ndim = ctx["out_ndim"]
    grads = []
    for raw, shape, batched in zip((raw_a, raw_b), ctx["shapes"],
                                   ctx["arg_batched"]):
        if raw is not None:
            extra = out_ndim - (len(shape) - 1)
            if batched and extra > 0:
                raw = raw.sum(axis=tuple(range(1, extra + 1)))
            raw = _unbroadcast(raw, shape)
        grads.append(raw)
    return tuple(grads)


# ----------------------------------------------------------------------
# arithmetic ops
# ----------------------------------------------------------------------
def _add_fwd(ctx, a, b):
    ctx["shapes"] = (a.shape, b.shape)
    return a + b


def _add_vjp(ctx, g):
    needs = ctx["needs"]
    s0, s1 = ctx["shapes"]
    return (
        _unbroadcast(g, s0) if needs[0] else None,
        _unbroadcast(g, s1) if needs[1] else None,
    )


def _add_bfwd(ctx, a, b):
    a2, b2 = _align_batched(ctx, (a, b))
    ctx["shapes"] = (a.shape, b.shape)
    return a2 + b2


def _add_bvjp(ctx, g):
    needs = ctx["needs"]
    return _binary_grads(ctx, g if needs[0] else None, g if needs[1] else None)


_ADD = graph.register_op(
    "add", _add_fwd, _add_vjp, batched_forward=_add_bfwd,
    batched_vjp=_add_bvjp, batch_exact=True,
)


def _neg_fwd(ctx, a):
    return -a


def _neg_vjp(ctx, g):
    return (-g,)


_NEG = graph.register_op("neg", _neg_fwd, _neg_vjp, elementwise=True)


def _sub_fwd(ctx, a, b):
    ctx["shapes"] = (a.shape, b.shape)
    return a - b


def _sub_vjp(ctx, g):
    needs = ctx["needs"]
    s0, s1 = ctx["shapes"]
    return (
        _unbroadcast(g, s0) if needs[0] else None,
        _unbroadcast(-g, s1) if needs[1] else None,
    )


def _sub_bfwd(ctx, a, b):
    a2, b2 = _align_batched(ctx, (a, b))
    ctx["shapes"] = (a.shape, b.shape)
    return a2 - b2


def _sub_bvjp(ctx, g):
    needs = ctx["needs"]
    return _binary_grads(ctx, g if needs[0] else None, -g if needs[1] else None)


_SUB = graph.register_op(
    "sub", _sub_fwd, _sub_vjp, batched_forward=_sub_bfwd,
    batched_vjp=_sub_bvjp, batch_exact=True,
)


def _mul_fwd(ctx, a, b):
    ctx["shapes"] = (a.shape, b.shape)
    ctx["a"], ctx["b"] = a, b
    return a * b


def _mul_vjp(ctx, g):
    needs = ctx["needs"]
    s0, s1 = ctx["shapes"]
    return (
        _unbroadcast(g * ctx["b"], s0) if needs[0] else None,
        _unbroadcast(g * ctx["a"], s1) if needs[1] else None,
    )


def _mul_bfwd(ctx, a, b):
    a2, b2 = _align_batched(ctx, (a, b))
    ctx["shapes"] = (a.shape, b.shape)
    ctx["a"], ctx["b"] = a2, b2
    return a2 * b2


def _mul_bvjp(ctx, g):
    needs = ctx["needs"]
    return _binary_grads(
        ctx,
        g * ctx["b"] if needs[0] else None,
        g * ctx["a"] if needs[1] else None,
    )


_MUL = graph.register_op(
    "mul", _mul_fwd, _mul_vjp, batched_forward=_mul_bfwd,
    batched_vjp=_mul_bvjp, batch_exact=True,
)


def _div_fwd(ctx, a, b):
    ctx["shapes"] = (a.shape, b.shape)
    ctx["a"], ctx["b"] = a, b
    return a / b


def _div_vjp(ctx, g):
    needs = ctx["needs"]
    s0, s1 = ctx["shapes"]
    a, b = ctx["a"], ctx["b"]
    return (
        _unbroadcast(g / b, s0) if needs[0] else None,
        _unbroadcast(-g * a / (b**2), s1) if needs[1] else None,
    )


def _div_bfwd(ctx, a, b):
    a2, b2 = _align_batched(ctx, (a, b))
    ctx["shapes"] = (a.shape, b.shape)
    ctx["a"], ctx["b"] = a2, b2
    return a2 / b2


def _div_bvjp(ctx, g):
    needs = ctx["needs"]
    a, b = ctx["a"], ctx["b"]
    return _binary_grads(
        ctx,
        g / b if needs[0] else None,
        -g * a / (b**2) if needs[1] else None,
    )


_DIV = graph.register_op(
    "div", _div_fwd, _div_vjp, batched_forward=_div_bfwd,
    batched_vjp=_div_bvjp, batch_exact=True,
)


def _pow_fwd(ctx, a, *, exponent):
    ctx["a"] = a
    ctx["exponent"] = exponent
    return a**exponent


def _pow_vjp(ctx, g):
    exponent = ctx["exponent"]
    return (g * exponent * ctx["a"] ** (exponent - 1),)


_POW = graph.register_op("pow", _pow_fwd, _pow_vjp, elementwise=True)


def _matmul_fwd(ctx, a, b):
    out = a @ b
    if profiler.is_profiling():
        profiler.record_op(2.0 * a.size * b.shape[-1], float(out.size))
    ctx["a"], ctx["b"] = a, b
    return out


def _matmul_vjp(ctx, g):
    needs = ctx["needs"]
    a, b = ctx["a"], ctx["b"]
    ga = gb = None
    if needs[0]:
        ga = g @ (np.swapaxes(b, -1, -2) if b.ndim > 1 else b.T)
        if ga.shape != a.shape:
            ga = _unbroadcast(ga, a.shape)
    if needs[1]:
        gb = (np.swapaxes(a, -1, -2) if a.ndim > 1 else a.T) @ g
        if gb.shape != b.shape:
            gb = _unbroadcast(gb, b.shape)
    return ga, gb


_MATMUL = graph.register_op(
    "matmul", _matmul_fwd, _matmul_vjp, batched_forward=_matmul_fwd,
    batched_vjp=_matmul_vjp, batch_exact=True,
)


# ----------------------------------------------------------------------
# elementwise nonlinearities
# ----------------------------------------------------------------------
def _relu_fwd(ctx, a):
    mask = a > 0
    ctx["mask"] = mask
    return a * mask


def _relu_vjp(ctx, g):
    return (g * ctx["mask"],)


_RELU = graph.register_op("relu", _relu_fwd, _relu_vjp, elementwise=True)


def _sigmoid_fwd(ctx, a):
    out = 1.0 / (1.0 + np.exp(-a))
    ctx["out"] = out
    return out


def _sigmoid_vjp(ctx, g):
    out = ctx["out"]
    return (g * out * (1.0 - out),)


_SIGMOID = graph.register_op("sigmoid", _sigmoid_fwd, _sigmoid_vjp, elementwise=True)


def _tanh_fwd(ctx, a):
    out = np.tanh(a)
    ctx["out"] = out
    return out


def _tanh_vjp(ctx, g):
    return (g * (1.0 - ctx["out"] ** 2),)


_TANH = graph.register_op("tanh", _tanh_fwd, _tanh_vjp, elementwise=True)


def _exp_fwd(ctx, a):
    out = np.exp(a)
    ctx["out"] = out
    return out


def _exp_vjp(ctx, g):
    return (g * ctx["out"],)


_EXP = graph.register_op("exp", _exp_fwd, _exp_vjp, elementwise=True)


def _log_fwd(ctx, a):
    ctx["a"] = a
    return np.log(a)


def _log_vjp(ctx, g):
    return (g / ctx["a"],)


_LOG = graph.register_op("log", _log_fwd, _log_vjp, elementwise=True)


def _sqrt_fwd(ctx, a):
    out = np.sqrt(a)
    ctx["out"] = out
    return out


def _sqrt_vjp(ctx, g):
    return (g * 0.5 / ctx["out"],)


_SQRT = graph.register_op("sqrt", _sqrt_fwd, _sqrt_vjp, elementwise=True)


def _abs_fwd(ctx, a):
    ctx["sign"] = np.sign(a)
    return np.abs(a)


def _abs_vjp(ctx, g):
    return (g * ctx["sign"],)


_ABS = graph.register_op("abs", _abs_fwd, _abs_vjp, elementwise=True)


def _detach_fwd(ctx, a):
    return a  # no copy: preserves the detach() sharing contract


def _detach_vjp(ctx, g):  # pragma: no cover - never called (stops_grad)
    return (None,)


_DETACH = graph.register_op(
    "detach", _detach_fwd, _detach_vjp, elementwise=True, stops_grad=True
)


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def _sum_fwd(ctx, a, *, axis, keepdims):
    ctx["in_shape"] = a.shape
    ctx["axis"] = axis
    ctx["keepdims"] = keepdims
    return np.asarray(a.sum(axis=axis, keepdims=keepdims))


def _sum_vjp(ctx, g):
    in_shape = ctx["in_shape"]
    axis = ctx["axis"]
    grad = g
    if not ctx["keepdims"] and axis is not None:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(in_shape) for a in axes)
        shape = tuple(1 if i in axes else s for i, s in enumerate(in_shape))
        grad = grad.reshape(shape)
    return (np.broadcast_to(grad, in_shape).astype(g.dtype),)


def _sum_bfwd(ctx, a, *, axis, keepdims):
    nd = a.ndim - 1  # ndim at capture (axis indices refer to it)
    if axis is None:
        raxes = tuple(range(1, a.ndim))
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        raxes = tuple(ax % nd + 1 for ax in axes)
    ctx["in_shape"] = a.shape
    ctx["raxes"] = raxes
    ctx["keepdims"] = keepdims
    return np.asarray(a.sum(axis=raxes, keepdims=keepdims))


def _sum_bvjp(ctx, g):
    in_shape = ctx["in_shape"]
    grad = g
    if not ctx["keepdims"]:
        shape = tuple(
            1 if i in ctx["raxes"] else s for i, s in enumerate(in_shape)
        )
        grad = grad.reshape(shape)
    return (np.broadcast_to(grad, in_shape).astype(g.dtype),)


# not batch_exact: numpy's pairwise float32 reduction rounds differently
# depending on the buffer it runs over (allocation alignment), so a stacked
# multi-axis sum cannot promise bit-identity with per-slice full sums
_SUM = graph.register_op(
    "sum", _sum_fwd, _sum_vjp, batched_forward=_sum_bfwd,
    batched_vjp=_sum_bvjp,
)


def _max_fwd(ctx, a, *, axis, keepdims):
    out = a.max(axis=axis, keepdims=keepdims)
    max_keep = a.max(axis=axis, keepdims=True)
    ctx["mask"] = a == max_keep
    ctx["counts"] = ctx["mask"].sum(axis=axis, keepdims=True)
    ctx["in_shape"] = a.shape
    ctx["axis"] = axis
    ctx["keepdims"] = keepdims
    return np.asarray(out)


def _max_vjp(ctx, g):
    in_shape = ctx["in_shape"]
    axis = ctx["axis"]
    keepdims = ctx["keepdims"]
    grad = g
    if not keepdims and axis is not None:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(in_shape) for a in axes)
        shape = tuple(1 if i in axes else s for i, s in enumerate(in_shape))
        grad = grad.reshape(shape)
    elif not keepdims and axis is None:
        grad = np.reshape(grad, (1,) * len(in_shape))
    return ((ctx["mask"] * grad / ctx["counts"]).astype(g.dtype),)


_MAX = graph.register_op("max", _max_fwd, _max_vjp)


# ----------------------------------------------------------------------
# shape manipulation
# ----------------------------------------------------------------------
def _reshape_fwd(ctx, a, *, shape):
    ctx["in_shape"] = a.shape
    return a.reshape(shape)


def _reshape_vjp(ctx, g):
    return (g.reshape(ctx["in_shape"]),)


def _reshape_bfwd(ctx, a, *, shape):
    ctx["in_shape"] = a.shape
    return a.reshape((a.shape[0],) + tuple(shape))


_RESHAPE = graph.register_op(
    "reshape", _reshape_fwd, _reshape_vjp, batched_forward=_reshape_bfwd,
    batched_vjp=_reshape_vjp, batch_exact=True,
)


def _transpose_fwd(ctx, a, *, axes):
    ctx["inverse"] = np.argsort(axes)
    return a.transpose(axes)


def _transpose_vjp(ctx, g):
    return (g.transpose(ctx["inverse"]),)


def _transpose_bfwd(ctx, a, *, axes):
    baxes = (0,) + tuple(ax + 1 for ax in axes)
    ctx["inverse"] = np.argsort(baxes)
    return a.transpose(baxes)


_TRANSPOSE = graph.register_op(
    "transpose", _transpose_fwd, _transpose_vjp,
    batched_forward=_transpose_bfwd, batched_vjp=_transpose_vjp,
    batch_exact=True,
)


def _getitem_fwd(ctx, a, *, index):
    ctx["in_shape"] = a.shape
    ctx["in_dtype"] = a.dtype
    ctx["index"] = index
    return np.ascontiguousarray(a[index])


def _getitem_vjp(ctx, g):
    full = np.zeros(ctx["in_shape"], dtype=ctx["in_dtype"])
    np.add.at(full, ctx["index"], g)
    return (full,)


_GETITEM = graph.register_op("getitem", _getitem_fwd, _getitem_vjp)


def _concat_fwd(ctx, *arrays, axis):
    ctx["axis"] = axis
    ctx["sizes"] = [a.shape[axis] for a in arrays]
    return np.concatenate(arrays, axis=axis)


def _concat_vjp(ctx, g):
    axis = ctx["axis"]
    offsets = np.cumsum([0] + ctx["sizes"])
    grads = []
    for need, start, stop in zip(ctx["needs"], offsets[:-1], offsets[1:]):
        if need:
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            grads.append(np.ascontiguousarray(g[tuple(index)]))
        else:
            grads.append(None)
    return tuple(grads)


_CONCAT = graph.register_op("concat", _concat_fwd, _concat_vjp)


def _stack_fwd(ctx, *arrays, axis):
    ctx["axis"] = axis
    return np.stack(arrays, axis=axis)


def _stack_vjp(ctx, g):
    slices = np.moveaxis(g, ctx["axis"], 0)
    return tuple(
        np.ascontiguousarray(piece) if need else None
        for piece, need in zip(slices, ctx["needs"])
    )


_STACK = graph.register_op("stack", _stack_fwd, _stack_vjp)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    return apply_op(_CONCAT, tensors, axis=axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    return apply_op(_STACK, tensors, axis=axis)


def as_tensor(value, dtype=None) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` without copying when possible."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)
