"""Tests for the static graph tape (:mod:`repro.nn.graph`).

Five contracts:

* **replay equivalence** — for every registered op, a program captured on a
  :class:`GraphTape` replays bit-identically to the dynamic closure-based
  autograd (loss and every leaf gradient);
* **batched equivalence** — for every op with a batched implementation, a
  batched replay of B independent leaf/input sets matches B per-slice
  replays (bit-identical when the tape is ``batch_exact``);
* **capture semantics** — detach stays a no-copy view, parameter shape
  changes invalidate the tape loudly, inputs and parameters of another
  dtype are refused, a finalized tape pins no capture-time tensor, and
  replay eliminates the per-op dispatch the dynamic tape pays (the
  profiler's ``dispatches`` counter);
* **liveness** — a replay drops each intermediate after its last reader
  and each VJP context after its node, yet graphs whose intermediates are
  read late (residuals, three readers of one slot built in either order)
  replay bit-identically to dynamic autograd, also batched, and the peak
  memory of SixCNN replays stays pinned (``tracemalloc``);
* **model tapes** — :func:`replay_backward` on a live model equals dynamic
  autograd, captures once per mode and input shape, leaves BN statistics as
  one dynamic step would, and never travels with a pickled model; every
  pullback of one :meth:`GraphTape.replay_vjp` is ``replay_grad``'s sweep.
"""

from __future__ import annotations

import gc
import pickle
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.graph import (
    OPS,
    GraphTape,
    active_tape,
    model_tape,
    replay_backward,
    replay_forward,
)
from repro.nn.profiler import OpProfiler
from repro.nn.tensor import concat, no_grad, stack
from repro.obs.metrics import METRICS


def _f(rng, *shape, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape).astype(np.float32)


class Case:
    """One op's equivalence scenario.

    ``make(rng)`` returns ``(leaf_arrays, input_arrays)`` — float leaves
    become grad-carrying tape params, named inputs become per-replay tape
    inputs.  ``build(leaves, inputs)`` applies the op (plus whatever it
    needs around it) on the corresponding tensors.
    """

    def __init__(self, make, build):
        self.make = make
        self.build = build


def _probs(rng, *shape):
    p = rng.uniform(0.1, 1.0, size=shape).astype(np.float32)
    return p / p.sum(axis=-1, keepdims=True)


def _conv_case(x_shape, w_shape, stride=1, padding=0, groups=1):
    return Case(
        lambda r: ([_f(r, *x_shape), _f(r, *w_shape), _f(r, w_shape[0])], {}),
        lambda ls, ins: F.conv2d(ls[0], ls[1], ls[2], stride=stride,
                                 padding=padding, groups=groups),
    )


def _bn_case(rng):
    return [_f(rng, 4, 3), _f(rng, 3), _f(rng, 3)], {}


def _bn_build(leaves, inputs):
    x, gamma, beta = leaves
    # fresh running buffers per run: they are updated in place
    return F.batch_norm(
        x, gamma, beta, np.zeros(3, np.float32), np.ones(3, np.float32),
        training=True,
    )


CASES: dict[str, Case] = {
    "add": Case(lambda r: ([_f(r, 2, 3), _f(r, 3)], {}),
                lambda ls, ins: ls[0] + ls[1]),
    "sub": Case(lambda r: ([_f(r, 2, 3), _f(r, 2, 3)], {}),
                lambda ls, ins: ls[0] - ls[1]),
    "mul": Case(lambda r: ([_f(r, 2, 3), _f(r, 2, 3)], {}),
                lambda ls, ins: ls[0] * ls[1]),
    "div": Case(lambda r: ([_f(r, 2, 3), _f(r, 2, 3, lo=0.5, hi=1.5)], {}),
                lambda ls, ins: ls[0] / ls[1]),
    "neg": Case(lambda r: ([_f(r, 2, 3)], {}), lambda ls, ins: -ls[0]),
    "pow": Case(lambda r: ([_f(r, 2, 3)], {}), lambda ls, ins: ls[0] ** 3),
    "matmul": Case(lambda r: ([_f(r, 2, 3), _f(r, 3, 4)], {}),
                   lambda ls, ins: ls[0] @ ls[1]),
    "relu": Case(lambda r: ([_f(r, 2, 3)], {}), lambda ls, ins: ls[0].relu()),
    "sigmoid": Case(lambda r: ([_f(r, 2, 3)], {}),
                    lambda ls, ins: ls[0].sigmoid()),
    "tanh": Case(lambda r: ([_f(r, 2, 3)], {}), lambda ls, ins: ls[0].tanh()),
    "exp": Case(lambda r: ([_f(r, 2, 3)], {}), lambda ls, ins: ls[0].exp()),
    "log": Case(lambda r: ([_f(r, 2, 3, lo=0.5, hi=2.0)], {}),
                lambda ls, ins: ls[0].log()),
    "sqrt": Case(lambda r: ([_f(r, 2, 3, lo=0.5, hi=2.0)], {}),
                 lambda ls, ins: ls[0].sqrt()),
    "abs": Case(lambda r: ([_f(r, 2, 3)], {}), lambda ls, ins: ls[0].abs()),
    "sum": Case(lambda r: ([_f(r, 2, 3)], {}),
                lambda ls, ins: ls[0].sum(axis=1)),
    "max": Case(lambda r: ([_f(r, 2, 3)], {}),
                lambda ls, ins: ls[0].max(axis=1)),
    "reshape": Case(lambda r: ([_f(r, 2, 3)], {}),
                    lambda ls, ins: ls[0].reshape((3, 2))),
    "transpose": Case(lambda r: ([_f(r, 2, 3)], {}),
                      lambda ls, ins: ls[0].transpose((1, 0))),
    "getitem": Case(lambda r: ([_f(r, 4, 3)], {}),
                    lambda ls, ins: ls[0][1:, :2]),
    "detach": Case(lambda r: ([_f(r, 2, 3)], {}),
                   lambda ls, ins: ls[0] * ls[0].detach()),
    "concat": Case(lambda r: ([_f(r, 2, 3), _f(r, 4, 3)], {}),
                   lambda ls, ins: concat(ls, axis=0)),
    "stack": Case(lambda r: ([_f(r, 2, 3), _f(r, 2, 3)], {}),
                  lambda ls, ins: stack(ls, axis=1)),
    # a six_cnn layer shape
    "conv2d": _conv_case((2, 16, 8, 8), (32, 16, 3, 3), padding=1),
    "max_pool2d": Case(lambda r: ([_f(r, 2, 3, 4, 4)], {}),
                       lambda ls, ins: F.max_pool2d(ls[0], 2)),
    "avg_pool2d": Case(lambda r: ([_f(r, 2, 3, 4, 4)], {}),
                       lambda ls, ins: F.avg_pool2d(ls[0], 2)),
    "batch_norm": Case(_bn_case, _bn_build),
    "softmax": Case(lambda r: ([_f(r, 4, 6)], {}),
                    lambda ls, ins: F.softmax(ls[0])),
    "log_softmax": Case(lambda r: ([_f(r, 4, 6)], {}),
                        lambda ls, ins: F.log_softmax(ls[0])),
    "cross_entropy": Case(
        lambda r: ([_f(r, 4, 6)],
                   {"y": r.integers(0, 3, size=4).astype(np.int64),
                    "mask": np.array([1, 1, 1, 0, 0, 0], dtype=bool)}),
        lambda ls, ins: F.cross_entropy(ls[0], ins["y"],
                                        class_mask=ins["mask"]),
    ),
    "soft_cross_entropy": Case(
        lambda r: ([_f(r, 4, 6)],
                   {"target": _probs(r, 4, 6),
                    "mask": np.array([1, 1, 1, 1, 0, 0], dtype=bool)}),
        lambda ls, ins: F.soft_cross_entropy(ls[0], ins["target"],
                                             class_mask=ins["mask"]),
    ),
    "dropout": Case(
        lambda r: ([_f(r, 4, 6)], {}),
        lambda ls, ins: F.dropout(ls[0], 0.5, training=True,
                                  rng=np.random.default_rng(7)),
    ),
}

BATCHED_CASES = {
    name: CASES[name] for name, op in OPS.items()
    if op.batched_forward is not None
}
# shapes on which the serial and batched conv once took different
# contraction routes and disagreed in the last bits; with one GEMM kernel
# behind both, a batched slice must equal the serial op exactly
BATCHED_CASES.update({
    "conv2d-batch1": _conv_case((1, 16, 8, 8), (32, 16, 3, 3), padding=1),
    "conv2d-depthwise": _conv_case((2, 8, 8, 8), (8, 1, 3, 3), padding=1,
                                   groups=8),
    "conv2d-1x1": _conv_case((2, 16, 8, 8), (32, 16, 1, 1)),
    "conv2d-stride2": _conv_case((2, 16, 8, 8), (32, 16, 3, 3), stride=2,
                                 padding=1),
    "conv2d-2x2x256": _conv_case((2, 64, 2, 2), (256, 64, 3, 3), padding=1),
    # the shapes tests/test_kernels.py holds against the im2col kernel:
    # the SixCNN convs, the padded-width input gradient on a 4x4 and an
    # unpadded 7x7 map, its one-column fallback, and grouped / strided
    # convs on the generic col2im
    "conv2d-sixcnn-3to16": _conv_case((2, 3, 16, 16), (16, 3, 3, 3),
                                      padding=1),
    "conv2d-sixcnn-16to16": _conv_case((2, 16, 16, 16), (16, 16, 3, 3),
                                       padding=1),
    "conv2d-sixcnn-32to32": _conv_case((2, 32, 8, 8), (32, 32, 3, 3),
                                       padding=1),
    "conv2d-64to64-4x4": _conv_case((2, 64, 4, 4), (64, 64, 3, 3), padding=1),
    "conv2d-groups2": _conv_case((2, 16, 8, 8), (32, 8, 3, 3), padding=1,
                                 groups=2),
    "conv2d-5x5-stride2": _conv_case((2, 8, 9, 9), (16, 8, 5, 5), stride=2,
                                     padding=2),
    "conv2d-7x7-nopad": _conv_case((2, 8, 7, 7), (16, 8, 3, 3)),
    "conv2d-one-column": _conv_case((2, 256, 2, 2), (256, 256, 2, 2)),
    # odd sizes and other windows take the generic im2col pool
    "max_pool2d-odd": Case(lambda r: ([_f(r, 2, 3, 5, 7)], {}),
                           lambda ls, ins: F.max_pool2d(ls[0], 2)),
    "max_pool2d-3x3": Case(lambda r: ([_f(r, 2, 3, 6, 6)], {}),
                           lambda ls, ins: F.max_pool2d(ls[0], 3, 1, 1)),
})


def _run_dynamic(case, rng):
    leaf_arrays, input_arrays = case.make(rng)
    leaves = [Tensor(a.copy(), requires_grad=True) for a in leaf_arrays]
    inputs = {k: Tensor(v.copy(), dtype=v.dtype)
              for k, v in input_arrays.items()}
    out = case.build(leaves, inputs)
    out.backward(np.ones_like(out.data))
    return out.data.copy(), [
        None if leaf.grad is None else leaf.grad.copy() for leaf in leaves
    ]


def _capture(case, rng):
    leaf_arrays, input_arrays = case.make(rng)
    leaves = [Tensor(a.copy(), requires_grad=True) for a in leaf_arrays]
    inputs = {k: Tensor(v.copy(), dtype=v.dtype)
              for k, v in input_arrays.items()}
    tape = GraphTape()
    with tape.capture():
        for name, tensor in inputs.items():
            tape.add_input(name, tensor)
        tape.set_output(case.build(leaves, inputs))
    return tape, leaves, {k: v.data for k, v in inputs.items()}


class TestReplayEquivalence:
    def test_every_registered_op_has_a_case(self):
        assert set(CASES) == set(OPS), (
            "per-op replay-equivalence coverage drifted from the registry: "
            f"missing={sorted(set(OPS) - set(CASES))} "
            f"stale={sorted(set(CASES) - set(OPS))}"
        )

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_replay_matches_dynamic(self, name):
        case = CASES[name]
        if name == "dropout":
            # the random mask would be baked into the program; the capture
            # must refuse rather than silently replay one mask forever
            with pytest.raises(NotImplementedError, match="dropout"):
                _capture(case, np.random.default_rng(0))
            return
        dyn_out, dyn_grads = _run_dynamic(case, np.random.default_rng(0))
        tape, leaves, input_arrays = _capture(case, np.random.default_rng(0))
        assert name in {node.op.name for node in tape.nodes}
        rep_out, rep_grads = tape.replay_grad(input_arrays)
        by_leaf = {id(ps.ref): g
                   for ps, g in zip(tape.param_slots, rep_grads)}
        assert np.array_equal(dyn_out, rep_out)
        for leaf, dyn_grad in zip(leaves, dyn_grads):
            rep_grad = by_leaf.get(id(leaf))
            if dyn_grad is None:
                assert rep_grad is None
            else:
                assert rep_grad is not None
                assert np.array_equal(dyn_grad, rep_grad)

    @pytest.mark.parametrize("name", sorted(BATCHED_CASES))
    def test_batched_replay_matches_per_slice(self, name):
        case = BATCHED_CASES[name]
        b = 3
        rng = np.random.default_rng(1)
        sets = [case.make(rng) for _ in range(b)]
        tape, leaves, _ = _capture(
            case, np.random.default_rng(1)
        )
        leaf_index = {id(leaf): i for i, leaf in enumerate(leaves)}
        slot_leaf = [leaf_index[id(ps.ref)] for ps in tape.param_slots]
        per_slice = [
            tape.replay_grad(
                dict(sets[i][1]),
                params=[sets[i][0][j] for j in slot_leaf],
            )
            for i in range(b)
        ]
        stacked_inputs = {
            k: np.stack([sets[i][1][k] for i in range(b)])
            for k in sets[0][1]
        }
        stacked_params = [
            np.stack([sets[i][0][j] for i in range(b)]) for j in slot_leaf
        ]
        out, grads = tape.replay_grad_batched(
            stacked_inputs, stacked_params, b
        )
        same = np.array_equal if tape.batch_exact else (
            lambda x, y: np.allclose(x, y, rtol=1e-5, atol=1e-6)
        )
        for i in range(b):
            slice_out, slice_grads = per_slice[i]
            assert same(out[i], slice_out)
            for slot, slice_grad in enumerate(slice_grads):
                if slice_grad is None:
                    assert grads[slot] is None
                else:
                    assert same(grads[slot][i], slice_grad)

    def test_soft_cross_entropy_replays_fresh_targets(self):
        """Targets and mask are tape inputs, not capture-time constants."""
        case = CASES["soft_cross_entropy"]
        tape, leaves, _ = _capture(case, np.random.default_rng(0))
        rng = np.random.default_rng(5)
        fresh = {"target": _probs(rng, 4, 6),
                 "mask": np.array([0, 1, 1, 0, 1, 1], dtype=bool)}
        logits = Tensor(leaves[0].data.copy(), requires_grad=True)
        dynamic = F.soft_cross_entropy(logits, fresh["target"],
                                       class_mask=fresh["mask"])
        dynamic.backward()
        out, (grad,) = tape.replay_grad(fresh)
        assert np.array_equal(out, dynamic.data)
        assert np.array_equal(grad, logits.grad)


class TestCaptureSemantics:
    def test_detach_is_no_copy_under_capture(self):
        base = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        plain = base.detach()
        assert np.shares_memory(plain.data, base.data)
        assert not plain.requires_grad
        tape = GraphTape()
        with tape.capture():
            captured = base.detach()
        assert np.shares_memory(captured.data, base.data)
        assert not captured.requires_grad

    def _simple_tape(self):
        w = Tensor(np.ones((3,), np.float32), requires_grad=True)
        x = Tensor(np.ones((3,), np.float32))
        tape = GraphTape()
        with tape.capture():
            tape.add_input("x", x)
            tape.set_output((w * x).sum())
        return tape, x.data

    def test_param_shape_change_invalidates_tape(self):
        tape, x = self._simple_tape()
        with pytest.raises(RuntimeError, match="GraphTape invalidated"):
            tape.replay_grad({"x": x}, params=[np.ones((4,), np.float32)])

    def test_param_count_change_invalidates_tape(self):
        tape, x = self._simple_tape()
        with pytest.raises(RuntimeError, match="GraphTape invalidated"):
            tape.replay_grad({"x": x}, params=[])

    def test_inputs_of_another_dtype_are_refused(self):
        """A float32 capture replayed on float64 or int64 minibatches would
        run every op in the wider dtype; the replay refuses instead."""
        model = build_model("six_cnn", 10, input_shape=(3, 8, 8),
                            rng=np.random.default_rng(0))
        model.eval()
        x = np.random.default_rng(1).standard_normal((4, 3, 8, 8))
        x = x.astype(np.float32)
        tape, _ = model_tape(model, _logits, {"x": x})
        for dtype in ("float64", "int64"):
            with pytest.raises(ValueError, match=f"'x' has dtype {dtype}, "
                                                 "captured as float32"):
                tape.replay({"x": x.astype(dtype)})
            with pytest.raises(ValueError, match=f"'x' has dtype {dtype}"):
                tape.replay_grad({"x": x.astype(dtype)})
        assert tape.replay({"x": x}).dtype == np.float32

    def test_parameters_of_another_dtype_are_refused(self):
        tape, x = self._simple_tape()
        with pytest.raises(ValueError, match=r"parameter 0 \(slot \d+\) has "
                                             "dtype float64, captured as float32"):
            tape.replay_grad({"x": x}, params=[np.ones((3,), np.float64)])
        with pytest.raises(ValueError, match="parameter 0 .* dtype float64"):
            tape.replay_grad_batched({"x": np.stack([x, x])},
                                     [np.ones((2, 3), np.float64)], 2)

    def test_finalized_tape_releases_capture_time_tensors(self):
        rng = np.random.default_rng(0)
        w = Tensor(_f(rng, 3, 4), requires_grad=True)
        x = Tensor(_f(rng, 2, 3))
        tape = GraphTape()
        with tape.capture():
            tape.add_input("x", x)
            hidden = (x @ w).relu()
            activation = weakref.ref(hidden.data)
            tape.set_output((hidden * hidden).sum())
        del hidden
        gc.collect()
        assert activation() is None
        out, (grad,) = tape.replay_grad({"x": x.data})
        assert np.isfinite(out) and grad.shape == (3, 4)

    def test_capture_is_per_thread(self):
        w = Tensor(np.ones((3,), np.float32), requires_grad=True)
        seen = {}

        def other():
            seen["active"] = active_tape()
            (w * w).sum()  # not recorded on this thread's tape
            second = GraphTape()
            with second.capture():  # no "already capturing" error
                second.set_output((w * 2.0).sum())
            seen["nodes"] = len(second.nodes)

        tape = GraphTape()
        with tape.capture():
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            assert active_tape() is tape
            tape.set_output((w * 3.0).sum())
        assert seen == {"active": None, "nodes": 2}
        assert len(tape.nodes) == 2  # only this thread's mul and sum

    def test_ops_after_set_output_are_refused(self):
        w = Tensor(np.ones((3,), np.float32), requires_grad=True)
        tape = GraphTape()
        with pytest.raises(RuntimeError, match="after set_output"):
            with tape.capture():
                out = (w * w).sum()
                tape.set_output(out)
                out * 2.0

    def test_replay_eliminates_per_op_dispatch(self):
        model = build_model("six_cnn", 10, input_shape=(3, 8, 8),
                            rng=np.random.default_rng(0))
        model.train()
        x = np.zeros((2, 3, 8, 8), np.float32)
        y = np.zeros((2,), np.int64)
        with OpProfiler() as dynamic:
            F.cross_entropy(model(Tensor(x)), y).backward()
        assert dynamic.dispatches > 0
        xt = Tensor(x)
        yt = Tensor(y, dtype=y.dtype)
        tape = GraphTape()
        with tape.capture():
            tape.add_input("x", xt)
            tape.add_input("y", yt)
            tape.set_output(F.cross_entropy(model(xt), yt))
        # capture records exactly the program the dynamic tape dispatched
        assert len(tape.nodes) == dynamic.dispatches
        with OpProfiler() as replayed:
            tape.replay_grad({"x": x, "y": y})
        assert replayed.dispatches == 0


def _masked_ce(model, x, y, mask):
    return F.cross_entropy(model(x), y, class_mask=mask)


def _logits(model, x):
    return model(x)


def _batch(rng, n, shape=(3, 8, 8), classes=10):
    x = rng.standard_normal((n,) + shape).astype(np.float32)
    y = rng.integers(0, 5, size=n).astype(np.int64)
    mask = np.arange(classes) < 5
    return {"x": x, "y": y, "mask": mask}


def _dynamic_step(model, inputs):
    model.zero_grad()
    loss = _masked_ce(model, Tensor(inputs["x"]), inputs["y"],
                      inputs["mask"])
    loss.backward()
    return loss.data, [None if p.grad is None else p.grad.copy()
                       for p in model.parameters()]


class TestModelTapes:
    @pytest.mark.parametrize(
        "name", ["six_cnn", "resnet18", "shufflenet_v2", "inception"]
    )
    def test_replay_backward_equals_dynamic_autograd(self, name):
        """Same loss, same gradients, same BN statistics, step after step
        (the capture must not advance BN running statistics itself)."""
        rng = np.random.default_rng(0)
        replayed = build_model(name, 10, input_shape=(3, 8, 8),
                               rng=np.random.default_rng(1), width=4)
        dynamic = pickle.loads(pickle.dumps(replayed))
        for model in (replayed, dynamic):
            model.train()
        for _ in range(3):
            inputs = _batch(rng, 4)
            loss, grads = _dynamic_step(dynamic, inputs)
            assert np.array_equal(
                replay_backward(replayed, _masked_ce, inputs), loss
            )
            for param, grad in zip(replayed.parameters(), grads):
                assert np.array_equal(param.grad, grad)
            for (_, a), (_, b) in zip(replayed.named_buffers(),
                                      dynamic.named_buffers()):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["resnet18", "shufflenet_v2"])
    def test_forward_replay_equals_dynamic_forward(self, name):
        """Residual adds and ShuffleNet's split / concat read activations
        long after they were produced; a forward replay drops each one only
        after that last read."""
        model = build_model(name, 10, input_shape=(3, 8, 8),
                            rng=np.random.default_rng(1), width=4)
        model.eval()
        x = np.random.default_rng(0).standard_normal((4, 3, 8, 8))
        x = x.astype(np.float32)
        with no_grad():
            expected = model(Tensor(x)).data
        for _ in range(2):  # the first call also captures the tape
            assert np.array_equal(replay_forward(model, _logits, {"x": x}),
                                  expected)

    def test_one_capture_per_mode_and_input_shape(self):
        model = build_model("six_cnn", 10, input_shape=(3, 8, 8),
                            rng=np.random.default_rng(1), width=4)
        rng = np.random.default_rng(0)
        model.train()
        first, _ = model_tape(model, _masked_ce, _batch(rng, 4))
        again, _ = model_tape(model, _masked_ce, _batch(rng, 4))
        smaller, _ = model_tape(model, _masked_ce, _batch(rng, 3))
        model.eval()
        evaluated, _ = model_tape(model, _masked_ce, _batch(rng, 4))
        assert again is first
        assert len({id(first), id(smaller), id(evaluated)}) == 3

    @pytest.mark.parametrize("name", ["six_cnn", "resnet18"])
    def test_every_pullback_is_the_replay_grad_sweep(self, name):
        """One forward's contexts serve any number of pullbacks; each is
        the sweep ``replay_grad`` runs, and none counts as a replay."""
        model = build_model(name, 10, input_shape=(3, 8, 8),
                            rng=np.random.default_rng(1), width=4)
        model.eval()
        rng = np.random.default_rng(0)
        inputs = {"x": _f(rng, 4, 3, 8, 8)}
        seed = _f(rng, 4, 10)
        tape, _ = model_tape(model, _logits, inputs)
        want_out, want = tape.replay_grad(inputs, seed=seed)
        replays = METRICS.counter("tape.replays")
        before = replays.value
        out, pullback = tape.replay_vjp(inputs)
        sweeps = [pullback(seed), pullback(seed)]
        assert replays.value == before + 1
        assert np.array_equal(out, want_out)
        for grads in sweeps:
            assert len(grads) == len(want) == tape.num_params
            for got, ref in zip(grads, want):
                assert ref is not None and np.array_equal(got, ref)

    def test_tapes_stay_behind_when_the_model_is_pickled(self):
        model = build_model("six_cnn", 10, input_shape=(3, 8, 8),
                            rng=np.random.default_rng(1), width=4)
        before = len(pickle.dumps(model))
        replay_backward(model, _masked_ce, _batch(np.random.default_rng(0), 4))
        assert model._tapes
        model.zero_grad()
        assert len(pickle.dumps(model)) == before
        assert pickle.loads(pickle.dumps(model))._tapes == {}


# ---------------------------------------------------------------------------
# liveness: late readers and replay memory
# ---------------------------------------------------------------------------


def _three_readers(x, y, w1, w2, w3, s):
    """``h`` is read by three nodes, the last of them four nodes later."""
    h = (x @ w1).relu()
    b = h * s
    a = (h @ w2).relu()
    logits = (a * b + h) @ w3
    return F.cross_entropy(logits, y)


def _three_readers_a_first(x, y, w1, w2, w3, s):
    """The same graph with ``a`` built before ``b``: the replay must sum
    ``h``'s three gradients in dynamic autograd's depth-first order, not
    in the reverse of the order its readers were recorded."""
    h = (x @ w1).relu()
    a = (h @ w2).relu()
    b = h * s
    logits = (a * b + h) @ w3
    return F.cross_entropy(logits, y)


def _conv_residual(x, y, w1, w2, w3, scale, shift):
    """A residual block without batch norm: ``h`` skips a conv whose output
    takes a per-channel ``(C, 1, 1)`` scale and shift, whose batched
    gradients sum over the sample axis and then over H and W."""
    h = F.conv2d(x, w1, padding=1).relu()
    z = (F.conv2d(h, w2, padding=1) * scale + shift + h).relu()
    return F.cross_entropy(z.reshape((x.shape[0], -1)) @ w3, y)


#: name -> (graph, x shape, weight shapes)
LATE_READERS = {
    "three-readers": (_three_readers, (4, 6), [(6, 5), (5, 5), (5, 3), (5,)]),
    "three-readers-a-first": (_three_readers_a_first, (4, 6),
                              [(6, 5), (5, 5), (5, 3), (5,)]),
    "conv-residual": (_conv_residual, (2, 3, 4, 4),
                      [(4, 3, 3, 3), (4, 4, 3, 3), (64, 3), (4, 1, 1),
                       (4, 1, 1)]),
}


def _late_reader_sample(name, rng):
    _, x_shape, shapes = LATE_READERS[name]
    x = _f(rng, *x_shape)
    y = rng.integers(0, 3, size=x_shape[0]).astype(np.int64)
    return x, y, [_f(rng, *shape) for shape in shapes]


def _late_reader_dynamic(name, x, y, weights):
    """Loss, weight gradients and every intermediate of a dynamic run."""
    graph = LATE_READERS[name][0]
    leaves = [Tensor(w.copy(), requires_grad=True) for w in weights]
    loss = graph(Tensor(x), Tensor(y, dtype=y.dtype), *leaves)
    loss.backward()
    return loss.data, [leaf.grad for leaf in leaves]


def _late_reader_tape(name):
    x, y, weights = _late_reader_sample(name, np.random.default_rng(0))
    leaves = [Tensor(w, requires_grad=True) for w in weights]
    xt, yt = Tensor(x), Tensor(y, dtype=y.dtype)
    tape = GraphTape()
    with tape.capture():
        tape.add_input("x", xt)
        tape.add_input("y", yt)
        tape.set_output(LATE_READERS[name][0](xt, yt, *leaves))
    leaf_index = {id(leaf): k for k, leaf in enumerate(leaves)}
    return tape, [leaf_index[id(ps.ref)] for ps in tape.param_slots]


class TestReplayLiveness:
    def test_each_slot_dies_after_its_last_reader(self):
        tape, _ = _late_reader_tape("three-readers")
        h = tape.nodes[1].out_slot  # relu(x @ w1)
        readers = [i for i, node in enumerate(tape.nodes) if h in node.arg_slots]
        assert len(readers) == 3
        released_at = [i for i, node in enumerate(tape.nodes)
                       if h in node.releases]
        assert released_at == [readers[-1]]
        released = [s for node in tape.nodes for s in node.releases]
        assert sorted(released) == sorted(
            node.out_slot for node in tape.nodes
            if node.out_slot != tape.output_slot
        )
        # every node here takes a parameter's gradient path
        assert all(node.keeps_ctx for node in tape.nodes)

    def test_nodes_off_the_gradient_path_keep_no_context(self):
        """A detached branch's nodes get no gradient, so a gradient replay
        keeps none of their contexts, and the gradients stay exact."""
        rng = np.random.default_rng(5)
        w_arr, x_arr = _f(rng, 3), _f(rng, 3)

        def loss_of(w, x):
            return (w * x).sum() + ((w * x).detach() * x).sum()

        w = Tensor(w_arr.copy(), requires_grad=True)
        x = Tensor(x_arr.copy())
        tape = GraphTape()
        with tape.capture():
            tape.add_input("x", x)
            tape.set_output(loss_of(w, x))
        kept = [node.op.name for node in tape.nodes if node.keeps_ctx]
        assert kept == ["mul", "sum", "add"]
        w_dyn = Tensor(w_arr.copy(), requires_grad=True)
        loss = loss_of(w_dyn, Tensor(x_arr.copy()))
        loss.backward()
        out, (grad,) = tape.replay_grad({"x": x_arr})
        assert np.array_equal(out, loss.data)
        assert np.array_equal(grad, w_dyn.grad)

    @pytest.mark.parametrize("name", sorted(LATE_READERS))
    def test_late_readers_replay_like_dynamic_autograd(self, name):
        tape, slot_leaf = _late_reader_tape(name)
        rng = np.random.default_rng(3)
        samples = [_late_reader_sample(name, rng) for _ in range(3)]
        for x, y, weights in samples:
            loss, grads = _late_reader_dynamic(name, x, y, weights)
            params = [weights[k] for k in slot_leaf]
            assert np.array_equal(tape.replay({"x": x, "y": y}, params), loss)
            out, replayed = tape.replay_grad({"x": x, "y": y}, params)
            assert np.array_equal(out, loss)
            for k, grad in zip(slot_leaf, replayed):
                assert np.array_equal(grad, grads[k])
        assert tape.batch_exact
        out, stacked = tape.replay_grad_batched(
            {"x": np.stack([x for x, _, _ in samples]),
             "y": np.stack([y for _, y, _ in samples])},
            [np.stack([w[k] for _, _, w in samples]) for k in slot_leaf],
            len(samples),
        )
        for i, (x, y, weights) in enumerate(samples):
            loss, grads = _late_reader_dynamic(name, x, y, weights)
            assert np.array_equal(out[i], loss)
            for k, grad in zip(slot_leaf, stacked):
                assert np.array_equal(grad[i], grads[k])


def _peak_mb(fn) -> float:
    """Peak traced allocation of ``fn()`` above its start, in MB; a first
    call outside the measurement captures the tape."""
    fn()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if started:
            tracemalloc.stop()


def _sixcnn(training: bool):
    model = build_model("six_cnn", 20, input_shape=(3, 16, 16),
                        rng=np.random.default_rng(0))
    model.train(training)
    return model


class TestReplayMemory:
    """Peak allocation of SixCNN replays at 3x16x16, above the call's start.

    Holding every activation and context for the whole replay read (MB):
    forward 26.4 at batch 64; backward 10.6 at batch 16 and 5.5 at batch
    8; a 16-client batch-8 batched replay 85.6, with the second conv's
    input-gradient columns for all clients at once.  Liveness plus
    one-client conv temporaries read 12.9, 7.3, 3.8 and 45.6.
    """

    def test_forward_replay_keeps_no_context(self):
        model = _sixcnn(training=False)
        x = np.random.default_rng(0).standard_normal((64, 3, 16, 16))
        inputs = {"x": x.astype(np.float32)}
        assert _peak_mb(lambda: replay_forward(model, _logits, inputs)) < 16.0

    @pytest.mark.parametrize("batch,bound", [(16, 8.5), (8, 4.5)])
    def test_backward_replay(self, batch, bound):
        model = _sixcnn(training=True)
        inputs = _batch(np.random.default_rng(0), batch, (3, 16, 16), 20)
        assert _peak_mb(lambda: replay_backward(model, _masked_ce, inputs)) < bound

    def test_batched_replay_of_16_clients(self):
        model = _sixcnn(training=True)
        rng = np.random.default_rng(0)
        tape, order = model_tape(model, _masked_ce,
                                 _batch(rng, 8, (3, 16, 16), 20))
        params = model.parameters()
        clients = 16
        stacked = [np.stack([params[j].data] * clients) for j in order]
        inputs = {
            "x": rng.standard_normal((clients, 8, 3, 16, 16)).astype(np.float32),
            "y": rng.integers(0, 5, size=(clients, 8)).astype(np.int64),
            "mask": np.stack([np.arange(20) < 5] * clients),
        }
        peak = _peak_mb(
            lambda: tape.replay_grad_batched(inputs, stacked, clients)
        )
        assert peak < 52.0
