"""The gradient restorer (Section III-C, Eq. 2).

Reconstructs a past task's gradient **without storing any of its samples**:
the retained knowledge ``W_i`` is loaded into a pruned scratch network whose
predictions on the *current* task's inputs act as soft labels; the gradient
of the current model towards those soft labels,

    g_i = grad loss( f(W, X_{m+1}), f(W_i, X_{m+1}) ),

is the update direction that keeps the model consistent with task ``t_i``.

Both passes — the pruned network's soft-label forward and the live model's
soft-label gradient — replay tapes captured on those models on first use
(:mod:`repro.nn.graph`), so restoring one gradient per signature task at
every local iteration pays no per-op dispatch.
"""

from __future__ import annotations

import numpy as np

from ..models.base import ImageClassifier
from ..nn import functional as F
from ..nn.graph import replay_backward, replay_forward
from ..nn.vector import gradients_to_vector
from .knowledge import TaskKnowledge


def _logits(model, x):
    return model(x)


def _soft_label_loss(model, x, targets, mask):
    return F.soft_cross_entropy(model(x), targets, class_mask=mask)


class GradientRestorer:
    """Computes past-task gradients from retained knowledge."""

    def __init__(self, scratch: ImageClassifier):
        """``scratch`` must be architecturally identical to the live model."""
        self._scratch = scratch

    def soft_labels(self, knowledge: TaskKnowledge, inputs: np.ndarray) -> np.ndarray:
        """Class-probability targets predicted by the task's pruned network."""
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
    ) -> np.ndarray:
        """Flat gradient of the current model towards the task's soft labels.

        The model is evaluated in eval mode so BN running statistics are not
        perturbed by restoration passes; parameter gradients are cleared
        before and after.
        """
        targets = self.soft_labels(knowledge, inputs)
        was_training = model.training
        model.eval()
        replay_backward(model, _soft_label_loss, {
            "x": np.asarray(inputs, dtype=np.float32),
            "targets": targets,
            "mask": knowledge.class_mask(),
        })
        gradient = gradients_to_vector(model.parameters())
        model.zero_grad()
        if was_training:
            model.train()
        return gradient

    def restore_gradients(
        self,
        model: ImageClassifier,
        knowledge_entries: list[TaskKnowledge],
        inputs: np.ndarray,
    ) -> np.ndarray:
        """Stack restored gradients for several tasks — shape ``(m, d)``."""
        if not knowledge_entries:
            raise ValueError("no knowledge entries to restore")
        return np.stack(
            [self.restore_gradient(model, k, inputs) for k in knowledge_entries]
        )
