"""Static graph tape: explicit op nodes, captured once and replayed per step.

The dynamic autograd in :mod:`repro.nn.tensor` wires one Python closure per
op.  That is flexible but it means every training step re-pays graph
construction and per-op dispatch.  This module provides the pieces that let
the same graph be built **once** and then executed as a flat list of array
operations:

* an **op registry** (:class:`OpDef` / :func:`register_op`): every tensor
  operation is a ``forward(ctx, *arrays, **params)`` / ``vjp(ctx, g)`` pair
  of shape-polymorphic functions over raw numpy arrays — the vjp returns one
  gradient per argument (or ``None``), aligned with the forward arguments;
* a :class:`GraphTape` of :class:`OpNode` records ``{op, parents, vjp
  context}`` — the vjp-graph structure of autograd's ``core.py`` — captured
  while a model runs under :meth:`GraphTape.capture` and replayed with
  :meth:`GraphTape.replay_grad` without building a single Tensor or closure;
* a **batched replay** (:meth:`GraphTape.replay_grad_batched`) that runs the
  captured program for ``B`` independent parameter/minibatch sets stacked
  along a new leading axis.  Ops opt in through ``batched_forward`` /
  ``batched_vjp`` implementations (broadcast GEMMs for conv, broadcast
  alignment for binary arithmetic); ``batch_exact`` marks ops whose batched
  arithmetic is bit-identical per slice to the unbatched op (verified for
  the matmul/conv/pool/cross-entropy set this substrate ships).

The tape's three leaf kinds are **inputs** (fed per replay: minibatches,
labels, masks), **params** (grad-carrying leaves, re-read from the bound
modules or passed explicitly per replay) and **consts** (baked at capture).
Parameter shapes are validated on every replay: a module whose parameter
shapes changed after capture raises a clear ``RuntimeError`` instead of
silently replaying a stale program.  An input or parameter whose dtype
differs from the capture's raises ``ValueError``.

Finalizing a tape plans the memory of every replay: each intermediate is
dropped right after its last reader runs, a node's VJP context is kept
only when a gradient can reach the node and only until its VJP has run,
and a forward-only replay keeps no context past its node.

:func:`model_tape` is the one capture path for models: it captures
``fn(model, **inputs)`` on the live model on first use and keeps the tape
there; ``fn`` may be a module-level function or a bound method.  Four
callers replay its tapes: :func:`replay_backward` / :func:`replay_forward`
(FedKNOW's serial steps, the stand-in for ``loss.backward()``), FedKNOW's
shared step forward (:mod:`repro.core.restorer`, one
:meth:`GraphTape.replay_vjp` of the logits pulled back once per loss head),
the batched round engine (:mod:`repro.federated.batched`, the chunk leader's
training loss) and the Fisher estimator (:mod:`repro.curv.fisher`, a batch-1
eval-mode loss).  A gradient replay sums each slot's gradients in the
order dynamic autograd does, so replayed training is bit-identical to it.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from . import profiler as _profiler

#: Every tape replay (forward-only or grad, batched or not) bumps this.
_TAPE_REPLAYS = _obs_metrics.METRICS.counter("tape.replays")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# op registry
# ----------------------------------------------------------------------
class OpDef:
    """A registered tensor operation: paired forward and vjp functions.

    ``forward(ctx, *arrays, **params)`` computes the result and stashes
    whatever the backward pass needs into the ``ctx`` dict (``ctx["needs"]``
    is pre-set to the per-argument requires-grad mask so forwards can skip
    saving unneeded intermediates).  ``vjp(ctx, g)`` returns one gradient
    array per forward argument, ``None`` where no gradient flows.

    ``batched_forward`` / ``batched_vjp`` (optional) run the op with a
    leading batch axis on every argument flagged in ``ctx["arg_batched"]``;
    ops without them cannot take part in a batched replay.
    """

    __slots__ = (
        "name",
        "forward",
        "vjp",
        "batched_forward",
        "batched_vjp",
        "batch_exact",
        "stops_grad",
    )

    def __init__(
        self,
        name: str,
        forward: Callable,
        vjp: Callable | None,
        batched_forward: Callable | None = None,
        batched_vjp: Callable | None = None,
        batch_exact: bool = False,
        stops_grad: bool = False,
    ):
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.batched_forward = batched_forward
        self.batched_vjp = batched_vjp
        self.batch_exact = batch_exact
        self.stops_grad = stops_grad

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OpDef({self.name!r})"


#: Global registry: op name -> definition.  Populated by
#: :mod:`repro.nn.tensor` and :mod:`repro.nn.functional` at import time.
OPS: dict[str, OpDef] = {}


def register_op(
    name: str,
    forward: Callable,
    vjp: Callable | None,
    *,
    batched_forward: Callable | None = None,
    batched_vjp: Callable | None = None,
    elementwise: bool = False,
    batch_exact: bool = False,
    stops_grad: bool = False,
) -> OpDef:
    """Register an op; ``elementwise`` reuses the plain functions for the
    batched path (a leading axis is just more elements)."""
    if name in OPS:
        raise ValueError(f"op {name!r} registered twice")
    if elementwise:
        batched_forward = batched_forward or forward
        batched_vjp = batched_vjp or vjp
        batch_exact = True
    op = OPS[name] = OpDef(
        name,
        forward,
        vjp,
        batched_forward=batched_forward,
        batched_vjp=batched_vjp,
        batch_exact=batch_exact,
        stops_grad=stops_grad,
    )
    return op


# ----------------------------------------------------------------------
# capture state
# ----------------------------------------------------------------------
class _CaptureState(threading.local):
    tape: "GraphTape | None" = None


_capture = _CaptureState()


def active_tape() -> "GraphTape | None":
    """The tape currently capturing on this thread, if any."""
    return _capture.tape


# ----------------------------------------------------------------------
# tape structure
# ----------------------------------------------------------------------
_KIND_INPUT = "input"
_KIND_PARAM = "param"
_KIND_CONST = "const"


class OpNode:
    """One recorded op: argument slots in, one output slot out."""

    __slots__ = (
        "op",
        "arg_slots",
        "out_slot",
        "params",
        "arg_shapes",
        "out_shape",
        "grad_mask",
        "arg_batched",
        "releases",
        "keeps_ctx",
    )

    def __init__(self, op, arg_slots, out_slot, params, arg_shapes, out_shape):
        self.op = op
        self.arg_slots = arg_slots
        self.out_slot = out_slot
        self.params = params
        self.arg_shapes = arg_shapes
        self.out_shape = out_shape
        # set by GraphTape._finalize:
        self.grad_mask: tuple[bool, ...] = ()
        # per argument, whether a batched replay gives it the client axis;
        # None when no argument has it (the node runs unbatched)
        self.arg_batched: tuple[bool, ...] | None = None
        # produced slots whose last forward reader this node is
        self.releases: tuple[int, ...] = ()
        # whether a gradient can reach this node's VJP
        self.keeps_ctx = False


class _ParamSlot:
    __slots__ = ("slot", "shape", "dtype", "ref")

    def __init__(self, slot, shape, dtype, ref):
        self.slot = slot
        self.shape = shape
        self.dtype = dtype
        self.ref = ref  # the leaf tensor captured (usually a Parameter)


class GraphTape:
    """A captured program: leaf slots plus a flat list of op nodes.

    Build one by running the model once inside :meth:`capture`, marking the
    per-step arrays with :meth:`add_input` and the result with
    :meth:`set_output`.  Replay then executes the node list directly on
    numpy arrays — no Tensors, no closures, no per-op dispatch.
    """

    def __init__(self):
        self.nodes: list[OpNode] = []
        self.num_slots = 0
        self.inputs: dict[str, tuple[int, tuple[int, ...], np.dtype]] = {}
        self.param_slots: list[_ParamSlot] = []
        self.consts: list[tuple[int, np.ndarray]] = []
        self.output_slot: int | None = None
        self._slot_of: dict[int, int] = {}  # id(tensor) -> slot
        self._keepalive: list = []  # pins tensor ids while capturing
        self._finalized = False

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def capture(self):
        """Record every op applied to tensors reachable from this tape."""
        if _capture.tape is not None:
            raise RuntimeError("another GraphTape is already capturing")
        if self._finalized:
            raise RuntimeError("cannot re-enter capture on a finalized tape")
        _capture.tape = self
        try:
            yield self
        finally:
            _capture.tape = None

    def _new_slot(self) -> int:
        slot = self.num_slots
        self.num_slots += 1
        return slot

    def add_input(self, name: str, tensor) -> None:
        """Mark ``tensor`` as a per-replay input named ``name``."""
        if name in self.inputs:
            raise ValueError(f"input {name!r} registered twice")
        slot = self._new_slot()
        self.inputs[name] = (slot, tensor.data.shape, tensor.data.dtype)
        self._slot_of[id(tensor)] = slot
        self._keepalive.append(tensor)

    def _add_leaf(self, tensor) -> int:
        slot = self._new_slot()
        if tensor.requires_grad:
            self.param_slots.append(
                _ParamSlot(slot, tensor.data.shape, tensor.data.dtype, tensor)
            )
        else:
            self.consts.append((slot, tensor.data))
        self._slot_of[id(tensor)] = slot
        self._keepalive.append(tensor)
        return slot

    def record(self, op: OpDef, tensors, params: Mapping, out) -> None:
        """Called by ``apply_op`` for every op executed during capture."""
        if self._finalized:
            raise RuntimeError(
                f"op {op.name!r} applied after set_output finalized the tape"
            )
        slots = []
        for t in tensors:
            slot = self._slot_of.get(id(t))
            if slot is None:
                slot = self._add_leaf(t)
            slots.append(slot)
        out_slot = self._new_slot()
        self._slot_of[id(out)] = out_slot
        self._keepalive.append(out)
        self.nodes.append(
            OpNode(
                op,
                tuple(slots),
                out_slot,
                dict(params),
                tuple(t.data.shape for t in tensors),
                out.data.shape,
            )
        )

    def set_output(self, tensor) -> None:
        """Mark the capture's result tensor and finalize the program."""
        slot = self._slot_of.get(id(tensor))
        if slot is None:
            raise ValueError(
                "output tensor was not produced while this tape was capturing"
            )
        self.output_slot = slot
        self._finalize()

    def _finalize(self) -> None:
        """Plan every replay: gradient masks, the batched client axis, and
        the liveness of slots and VJP contexts."""
        needs = np.zeros(self.num_slots, dtype=bool)
        batched = np.zeros(self.num_slots, dtype=bool)
        for ps in self.param_slots:
            needs[ps.slot] = batched[ps.slot] = True
        for slot, _, _ in self.inputs.values():
            batched[slot] = True
        # a produced slot dies after its last reader (or, unread, after
        # its producer); leaves and the output live for the whole replay
        last_read = {}
        for i, node in enumerate(self.nodes):
            node.grad_mask = tuple(bool(needs[s]) for s in node.arg_slots)
            if not node.op.stops_grad and any(node.grad_mask):
                needs[node.out_slot] = True
            arg_batched = tuple(bool(batched[s]) for s in node.arg_slots)
            if any(arg_batched):
                node.arg_batched = arg_batched
                batched[node.out_slot] = True
            for s in node.arg_slots:
                if s in last_read:
                    last_read[s] = i
            last_read[node.out_slot] = i
        releases: list[list[int]] = [[] for _ in self.nodes]
        for slot, i in last_read.items():
            if slot != self.output_slot:
                releases[i].append(slot)
        for node, released in zip(self.nodes, releases):
            node.releases = tuple(released)
        # the backward sweep runs a node's VJP only when a gradient reached
        # its output and one of its arguments needs one; no other node's
        # context is worth keeping.  It visits those nodes in the order
        # Tensor.backward does -- the reversed depth-first post-order from
        # the output over arguments that need a gradient -- so a slot read
        # three or more times sums its gradients in the same order.
        producer = {node.out_slot: i for i, node in enumerate(self.nodes)}
        post: list[int] = []
        seen: set[int] = set()
        stack = [(self.output_slot, False)]
        while stack:
            slot, expanded = stack.pop()
            i = producer.get(slot)
            if expanded:
                post.append(i)
                continue
            if slot in seen or i is None or not any(self.nodes[i].grad_mask):
                continue
            seen.add(slot)
            stack.append((slot, True))
            node = self.nodes[i]
            for s, need in zip(node.arg_slots, node.grad_mask):
                if need and s not in seen:
                    stack.append((s, False))
        for i in post:
            self.nodes[i].keeps_ctx = True
        self._backward_order = post[::-1]
        self._slot_needs = needs
        self._finalized = True
        # slots are resolved: holding the capture-time tensors any longer
        # would pin every activation and VJP context of the capture pass
        self._slot_of = {}
        self._keepalive = []

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_params(self) -> int:
        return len(self.param_slots)

    @property
    def batch_exact(self) -> bool:
        """True when batched replay is bit-identical per slice to serial."""
        return all(node.op.batch_exact for node in self.nodes)

    def batch_unsupported_ops(self) -> list[str]:
        """Names of recorded ops that cannot run in a batched replay."""
        return sorted(
            {n.op.name for n in self.nodes if n.op.batched_forward is None}
        )

    def bind_parameters(self, params: Sequence) -> list[int]:
        """Map each param slot to its index in ``params`` (by identity).

        Returns the slot->index mapping; replays that pass explicit
        parameter arrays must order them the same way.  Raises if a
        captured parameter is not in ``params``.
        """
        index_of = {id(p): i for i, p in enumerate(params)}
        order = []
        for ps in self.param_slots:
            idx = index_of.get(id(ps.ref))
            if idx is None:
                raise ValueError(
                    "captured parameter not found in the bound parameter list"
                )
            order.append(idx)
        return order

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def _check_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError(
                "GraphTape has no output yet; run a capture and call set_output"
            )

    def _param_arrays(self, params) -> list[np.ndarray]:
        if params is None:
            return [ps.ref.data for ps in self.param_slots]
        params = list(params)
        if len(params) != len(self.param_slots):
            raise RuntimeError(
                f"GraphTape invalidated: expected {len(self.param_slots)} "
                f"parameters, got {len(params)}"
            )
        return params

    def _fill_values(self, inputs, param_arrays, batch: int | None):
        values: list[np.ndarray | None] = [None] * self.num_slots
        for slot, arr in self.consts:
            values[slot] = arr
        unseen = set(self.inputs)
        for name, arr in inputs.items():
            if name not in self.inputs:
                raise ValueError(f"unknown tape input {name!r}")
            slot, shape, dtype = self.inputs[name]
            expected = shape if batch is None else (batch,) + shape
            arr = np.asarray(arr)
            if arr.shape != expected:
                raise ValueError(
                    f"tape input {name!r} has shape {arr.shape}, "
                    f"expected {expected}"
                )
            if arr.dtype != dtype:
                # numpy would promote every op downstream instead
                raise ValueError(
                    f"tape input {name!r} has dtype {arr.dtype}, "
                    f"captured as {dtype}"
                )
            values[slot] = arr
            unseen.discard(name)
        if unseen:
            raise ValueError(f"missing tape input(s): {sorted(unseen)}")
        for index, (ps, arr) in enumerate(zip(self.param_slots, param_arrays)):
            expected = ps.shape if batch is None else (batch,) + ps.shape
            if arr.shape != expected:
                raise RuntimeError(
                    f"GraphTape invalidated: parameter shape changed from "
                    f"{ps.shape} to "
                    f"{arr.shape if batch is None else arr.shape[1:]} "
                    f"between capture and replay; re-capture the graph"
                )
            if arr.dtype != ps.dtype:
                raise ValueError(
                    f"tape parameter {index} (slot {ps.slot}) has dtype "
                    f"{arr.dtype}, captured as {ps.dtype}"
                )
            values[ps.slot] = arr
        return values

    def _forward(self, values, grad: bool = False,
                 batch: int | None = None) -> list | None:
        """Run every node in order, filling ``values`` (one entry per slot).

        Each produced slot is dropped once its last reader has run; the
        output and the leaves stay.  With ``grad``, returns one VJP context
        per node, ``None`` where no gradient can reach the node; without
        it, no context outlives its node.  With a ``batch``, nodes whose
        arguments carry the client axis run their ``batched_forward``.
        Active OpTimers get each op's wall time.
        """
        ctxs = [None] * len(self.nodes) if grad else None
        timers = _profiler._timers
        perf = time.perf_counter
        for i, node in enumerate(self.nodes):
            ctx = {"needs": node.grad_mask}
            fn = node.op.forward
            if batch is not None and node.arg_batched is not None:
                ctx["B"] = batch
                ctx["arg_batched"] = node.arg_batched
                ctx["out_ndim"] = len(node.out_shape)
                fn = node.op.batched_forward
            args = [values[s] for s in node.arg_slots]
            if timers:
                started = perf()
                values[node.out_slot] = fn(ctx, *args, **node.params)
                _profiler.record_op_seconds("fwd." + node.op.name,
                                            perf() - started)
            else:
                values[node.out_slot] = fn(ctx, *args, **node.params)
            for s in node.releases:
                values[s] = None
            if grad and node.keeps_ctx:
                ctxs[i] = ctx
        return ctxs

    def _traced(self, kind: str, body, **attrs):
        """Run one replay ``body`` under telemetry accounting.

        Every replay but a pullback bumps the replay counter; when tracing
        is on the body runs inside a ``tape_replay`` span with an active
        :class:`~repro.nn.profiler.OpTimer`, whose per-op wall-clock
        summary is folded into the span's attributes.
        """
        if kind != "pullback":  # a pullback sweeps an already counted replay
            _TAPE_REPLAYS.inc()
        tracer = _obs_trace.TRACER
        if not tracer.enabled:
            return body()
        with tracer.span("tape_replay", kind=kind, nodes=len(self.nodes),
                         **attrs) as span, _profiler.OpTimer() as timer:
            result = body()
            span.attrs["ops"] = timer.summary()
        return result

    def replay(self, inputs: Mapping[str, np.ndarray], params=None) -> np.ndarray:
        """Run the captured program forward; returns the output array."""
        return self._traced("forward", lambda: self._replay(inputs, params))

    def _replay(self, inputs, params):
        self._check_finalized()
        values = self._fill_values(inputs, self._param_arrays(params), None)
        self._forward(values)
        return values[self.output_slot]

    def _backward(self, out_value, ctxs, seed, batched=False):
        """The reverse sweep from ``out_value``, in dynamic autograd's node
        order; returns the gradients left on leaf slots.  Each context in
        ``ctxs`` is dropped as its node is passed, so the sweep frees the
        forward's buffers as it goes."""
        if seed is None:
            seed = np.ones_like(out_value)
        grads: dict[int, np.ndarray] = {
            self.output_slot: np.asarray(seed, dtype=out_value.dtype)
        }
        needs = self._slot_needs
        timers = _profiler._timers
        perf = time.perf_counter
        for i in self._backward_order:
            node = self.nodes[i]
            ctx, ctxs[i] = ctxs[i], None
            g = grads.pop(node.out_slot, None)
            if g is None or ctx is None:
                continue
            vjp = node.op.vjp
            if batched and node.arg_batched is not None:
                vjp = node.op.batched_vjp or vjp
            if timers:
                started = perf()
                pgrads = vjp(ctx, g)
                _profiler.record_op_seconds("bwd." + node.op.name,
                                            perf() - started)
            else:
                pgrads = vjp(ctx, g)
            for s, pg in zip(node.arg_slots, pgrads):
                if pg is None or not needs[s]:
                    continue
                acc = grads.get(s)
                if acc is None:
                    grads[s] = pg
                else:
                    if pg.dtype != acc.dtype:
                        pg = pg.astype(acc.dtype)
                    grads[s] = acc + pg
            # an addend folded into a sum would otherwise live on through
            # the next node's VJP
            pgrads = pg = None
        return grads

    def replay_grad(
        self,
        inputs: Mapping[str, np.ndarray],
        params=None,
        seed: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """Forward + backward replay.

        Returns ``(output, param_grads)`` with one gradient per param slot
        (``None`` where no gradient reached the parameter).  The arithmetic
        and accumulation order match the dynamic tape exactly, so replayed
        training is bit-identical to closure-based training.
        """
        return self._traced(
            "grad", lambda: self._replay_grad(inputs, params, seed)
        )

    def _replay_grad(self, inputs, params, seed):
        out, ctxs = self._replay_vjp(inputs, params)
        grads = self._backward(out, ctxs, seed)
        return out, [grads.get(ps.slot) for ps in self.param_slots]

    def replay_vjp(self, inputs: Mapping[str, np.ndarray], params=None):
        """Forward replay keeping its VJP contexts: ``(output, pullback)``,
        the shape of JAX's ``vjp``.  ``pullback(seed)`` sweeps the output
        cotangent ``seed`` back as :meth:`replay_grad` does, on a copy of the
        context list, and returns one gradient per param slot; it may run
        any number of times, and the contexts live as long as it does."""
        out, ctxs = self._traced("vjp", lambda: self._replay_vjp(inputs, params))

        def pullback(seed: np.ndarray) -> list[np.ndarray | None]:
            grads = self._traced(
                "pullback", lambda: self._backward(out, list(ctxs), seed)
            )
            return [grads.get(ps.slot) for ps in self.param_slots]

        return out, pullback

    def _replay_vjp(self, inputs, params):
        self._check_finalized()
        values = self._fill_values(inputs, self._param_arrays(params), None)
        ctxs = self._forward(values, grad=True)
        return values[self.output_slot], ctxs

    # ------------------------------------------------------------------
    # batched replay
    # ------------------------------------------------------------------
    def replay_grad_batched(
        self,
        inputs: Mapping[str, np.ndarray],
        params: Sequence[np.ndarray],
        batch: int,
        seed: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[np.ndarray | None]]:
        """Replay ``batch`` independent parameter/input sets in one pass.

        Every input and parameter array carries a leading axis of length
        ``batch``; constants stay unbatched and broadcast.  Returns the
        stacked output plus stacked per-param gradients.  Raises a
        ``RuntimeError`` naming the op if any recorded op lacks a batched
        implementation.
        """
        return self._traced(
            "batched",
            lambda: self._replay_grad_batched(inputs, params, batch, seed),
            batch=batch,
        )

    def _replay_grad_batched(self, inputs, params, batch, seed):
        self._check_finalized()
        unsupported = self.batch_unsupported_ops()
        if unsupported:
            raise RuntimeError(
                f"captured graph contains op(s) without a batched "
                f"implementation: {unsupported}"
            )
        values = self._fill_values(inputs, list(params), batch)
        ctxs = self._forward(values, grad=True, batch=batch)
        out = values[self.output_slot]
        grads = self._backward(out, ctxs, seed, batched=True)
        return out, [grads.get(ps.slot) for ps in self.param_slots]


# ----------------------------------------------------------------------
# tapes captured on live models
# ----------------------------------------------------------------------
def model_tape(
    model, fn: Callable, inputs: Mapping[str, np.ndarray]
) -> tuple[GraphTape, list[int]]:
    """The graph of ``fn(model, **inputs)`` captured on the live ``model``.

    One tape per (every module's train/eval flag, ``fn``, input shapes and
    dtypes), captured on first use and kept on the model instance, which
    never pickles it (see ``Module.__getstate__``).  ``fn`` may be a
    module-level function or a bound method such as ``strategy.loss``:
    bound methods of one object compare equal, so each finds its tape
    again, while every other function object is its own key.  Parameter
    shapes are not part of the key: nothing in this package reassigns a
    parameter after construction, and a replay given parameter arrays of
    another shape raises ``GraphTape invalidated``.  The capture runs
    ``fn`` once without building a backward graph and then puts back
    every module buffer, so a train-mode capture does not advance BN
    running statistics.  Replays read the model's parameters and update
    its BN buffers in place, as the dynamic ops do.  Returns the tape and
    its slot -> ``model.parameters()`` index order.

    Raises ``NotImplementedError`` when an op refuses capture (dropout in
    train mode); the refusal is kept under the same key, so the capture is
    not tried again.
    """
    modes = tuple(m.training for m in model.modules())
    key = (fn, modes, tuple(
        (name, arr.shape, arr.dtype.str) for name, arr in inputs.items()
    ))
    entry = model._tapes.get(key)
    if entry is None:
        try:
            entry = _capture_model(model, fn, inputs)
        except NotImplementedError as refusal:
            entry = str(refusal)
        model._tapes[key] = entry
    if isinstance(entry, str):
        raise NotImplementedError(entry)
    return entry


def _capture_model(model, fn, inputs) -> tuple[GraphTape, list[int]]:
    from .tensor import Tensor, no_grad  # tensor imports this module

    saved = [(buf, buf.copy()) for _, buf in model.named_buffers()]
    tensors = {name: Tensor(arr, dtype=arr.dtype) for name, arr in inputs.items()}
    tape = GraphTape()
    try:
        with no_grad(), tape.capture():
            for name, tensor in tensors.items():
                tape.add_input(name, tensor)
            tape.set_output(fn(model, **tensors))
    finally:
        for buf, value in saved:
            buf[...] = value
    return tape, tape.bind_parameters(model.parameters())


def replay_forward(model, fn: Callable, inputs: Mapping[str, np.ndarray]):
    """The output array of ``fn(model, **inputs)``, replayed from
    :func:`model_tape`."""
    tape, _ = model_tape(model, fn, inputs)
    return tape.replay(inputs)


def replay_backward(model, fn: Callable, inputs: Mapping[str, np.ndarray]):
    """Replay ``fn(model, **inputs)`` forward and backward on
    :func:`model_tape`; returns the output array.

    Leaves every parameter's ``grad`` as ``model.zero_grad()`` followed by
    ``fn(...).backward()`` would: a fresh array per parameter the output
    reaches, ``None`` elsewhere.  A graph that refuses capture (dropout in
    train mode) runs exactly that, through dynamic autograd.
    """
    try:
        tape, order = model_tape(model, fn, inputs)
    except NotImplementedError:
        from .tensor import Tensor  # tensor imports this module

        model.zero_grad()
        out = fn(model, **{
            name: Tensor(arr, dtype=arr.dtype) for name, arr in inputs.items()
        })
        out.backward()
        return out.data
    out, grads = tape.replay_grad(inputs)
    set_grads(model, order, grads)
    return out


def set_grads(model, order: Sequence[int], grads) -> None:
    """Leave a replay's per-slot gradients (``order`` from :func:`model_tape`)
    in ``param.grad``: a fresh array per parameter reached, ``None`` elsewhere."""
    params = model.parameters()
    for param in params:
        param.grad = None
    for index, grad in zip(order, grads):
        if grad is not None:
            param = params[index]
            param.grad = grad.astype(param.data.dtype, copy=True)
