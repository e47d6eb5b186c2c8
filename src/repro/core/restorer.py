"""The gradient restorer (Section III-C, Eq. 2).

Reconstructs a past task's gradient **without storing any of its samples**:
the retained knowledge ``W_i`` forms a pruned network whose predictions on
the *current* task's inputs act as soft labels; the gradient of the current
model towards those soft labels,

    g_i = grad loss( f(W, X_{m+1}), f(W_i, X_{m+1}) ),

is the update direction that keeps the model consistent with task ``t_i``.

Every ``g_i`` is taken at the live weights ``W`` on the step's minibatch, so
a FedKNOW step replays the live forward once (:class:`LiveForward`): each
loss head runs its registered op on the logits and pulls back through the
forward's VJP contexts, and the soft labels replay its tape with the entry's
pruned weights.  That is the per-gradient arithmetic only for a model with
no buffers (a pruned network's BN statistics are its entry's) whose train-
and eval-mode logits tapes record one program.  Other models (batch norm,
dropout) load each entry into the scratch network for its soft labels and
replay the live model's soft-label loss in eval mode.  Both paths replay
tapes captured on first use (:mod:`repro.nn.graph`).
"""

from __future__ import annotations

import numpy as np

from ..models.base import ImageClassifier
from ..nn import functional as F
from ..nn.graph import (OPS, model_tape, replay_backward, replay_forward,
                        set_grads)
from ..nn.vector import gradients_to_vector
from .knowledge import TaskKnowledge


def _logits(model, x):
    return model(x)


def _soft_label_loss(model, x, targets, mask):
    return F.soft_cross_entropy(model(x), targets, class_mask=mask)


def _same_program(a, b) -> bool:
    """Whether two tapes run the same ops on the same slots, with equal node
    params and constants (``np.array_equal`` compares arrays and scalars)."""
    same = np.array_equal
    return (len(a.nodes) == len(b.nodes) and len(a.consts) == len(b.consts)
            and all(u.op is v.op and u.arg_slots == v.arg_slots
                    and u.out_slot == v.out_slot and u.params.keys() == v.params.keys()
                    and all(same(u.params[k], v.params[k]) for k in u.params)
                    for u, v in zip(a.nodes, b.nodes))
            and all(s == t and same(p, q)
                    for (s, p), (t, q) in zip(a.consts, b.consts)))


class LiveForward:
    """One replayed forward of a model's logits whose VJP contexts serve
    every loss head of a step."""

    def __init__(self, model: ImageClassifier, x: np.ndarray):
        self.model, self.x = model, x
        self.tape, self.order = model_tape(model, _logits, {"x": x})
        self.logits, self._pullback = self.tape.replay_vjp({"x": x})

    def backward(self, op_name: str, *arrays) -> np.ndarray:
        """Leave the gradient of the loss ``op_name(logits, *arrays)`` in
        the parameters' ``grad`` and return the loss.  Seeded with ones at
        the loss, as a full-loss tape is, the sweep is that tape's, so the
        gradients are :func:`~repro.nn.graph.replay_backward`'s."""
        op = OPS[op_name]
        ctx = {"needs": (True,) + (False,) * len(arrays)}
        loss = op.forward(ctx, self.logits, *arrays)
        seed = op.vjp(ctx, np.ones_like(loss))[0]
        set_grads(self.model, self.order, self._pullback(seed))
        return loss

    def logits_at(self, state: dict[str, np.ndarray]) -> np.ndarray:
        """The logits at the weights of the state dict ``state``."""
        names = [name for name, _ in self.model.named_parameters()]
        return self.tape.replay({"x": self.x},
                                [state[names[i]] for i in self.order])


class GradientRestorer:
    """Computes past-task gradients from retained knowledge."""

    def __init__(self, scratch: ImageClassifier):
        """``scratch`` must be architecturally identical to the live model."""
        self._scratch = scratch
        self._shares: dict[tuple[int, ...], bool] = {}

    def live_forward(self, model: ImageClassifier,
                     inputs: np.ndarray) -> LiveForward | None:
        """``model``'s shared forward on ``inputs``; ``None`` if it has buffers
        (no capture) or its train/eval logits tapes differ (cached by shape)."""
        if next(model.named_buffers(), None) is not None:
            return None
        x = np.asarray(inputs, dtype=np.float32)
        shares = self._shares.get(x.shape)
        if shares is None:
            was_training = model.training
            try:
                live, _ = model_tape(model.train(), _logits, {"x": x})
                model.eval()
                frozen, _ = model_tape(model, _logits, {"x": x})
                shares = _same_program(live, frozen)
            except NotImplementedError:  # an op that refuses capture (dropout)
                shares = False
            finally:
                model.train(was_training)
            self._shares[x.shape] = shares
        return LiveForward(model, x) if shares else None

    def soft_labels(self, knowledge: TaskKnowledge, inputs: np.ndarray,
                    forward: LiveForward | None = None) -> np.ndarray:
        """Class-probability targets predicted by the task's pruned network,
        replayed on ``forward``'s tape and inputs when one is given."""
        if forward is not None:
            logits = forward.logits_at(knowledge.restore_state())
        else:
            self._scratch.load_state_dict(knowledge.restore_state())
            self._scratch.eval()
            x = np.asarray(inputs, dtype=np.float32)
            logits = replay_forward(self._scratch, _logits, {"x": x})
        mask = knowledge.class_mask()
        masked = np.where(mask[None, :], logits, np.float32(-1e9))
        shifted = masked - masked.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return (exp / exp.sum(axis=1, keepdims=True)).astype(np.float32)

    def restore_gradient(
        self,
        model: ImageClassifier,
        knowledge: TaskKnowledge,
        inputs: np.ndarray,
        forward: LiveForward | None = None,
    ) -> np.ndarray:
        """Flat gradient of the current model towards the task's soft labels.

        It pulls back through ``forward`` (:meth:`live_forward` of ``model``
        on ``inputs``) when one is given; otherwise the model runs in eval
        mode so BN running statistics are not perturbed by restoration
        passes.  Parameter gradients are cleared before and after."""
        targets = self.soft_labels(knowledge, inputs, forward)
        if forward is not None:
            forward.backward("soft_cross_entropy", targets, knowledge.class_mask())
        else:
            was_training = model.training
            model.eval()
            replay_backward(model, _soft_label_loss, {
                "x": np.asarray(inputs, dtype=np.float32),
                "targets": targets,
                "mask": knowledge.class_mask(),
            })
            model.train(was_training)
        gradient = gradients_to_vector(model.parameters())
        model.zero_grad()
        return gradient

    def restore_gradients(
        self,
        model: ImageClassifier,
        knowledge_entries: list[TaskKnowledge],
        inputs: np.ndarray,
        forward: LiveForward | None = None,
    ) -> np.ndarray:
        """Stack restored gradients for several tasks — shape ``(m, d)``;
        each pulls back through ``forward`` when one is given."""
        if not knowledge_entries:
            raise ValueError("no knowledge entries to restore")
        return np.stack([self.restore_gradient(model, k, inputs, forward)
                         for k in knowledge_entries])
