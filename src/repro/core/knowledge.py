"""Signature task knowledge: extraction, storage and restoration (Section III-B).

After a task is learned, the knowledge extractor retains the fraction ``rho``
of model weights with the largest magnitudes (weight-based pruning, Eq. 1) —
typically 10 % — as that task's *knowledge*.  The retained weights, their
positions, the task's class set and the (tiny) BN statistics are enough to
re-materialise a pruned network that still predicts the task well, which is
what the gradient restorer consumes.

Extraction follows the paper's three steps: (1) the model is trained to
convergence by the normal task loop, (2) the top-``rho`` weights are selected,
(3) the retained weights are optionally fine-tuned with the others frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..curv.selector import SignatureSelector, create_selector
from ..data.federated import ClientTask
from ..models.base import ImageClassifier
from ..nn import functional as F
from ..nn.graph import replay_backward
from ..nn.optim import SGD
from ..utils.serialization import (
    SparseTensor,
    WireValue,
    encoded_num_bytes,
    topk_magnitude_indices,
)


def _task_loss(model, x, y, mask):
    return F.cross_entropy(model(x), y, class_mask=mask)


def task_loss_backward(
    model: ImageClassifier, x: np.ndarray, y: np.ndarray, mask: np.ndarray
) -> float:
    """One gradient step's forward and backward of the task's masked
    cross-entropy, replayed from a tape captured on ``model`` (see
    :func:`~repro.nn.graph.replay_backward`).

    Leaves the gradients in ``param.grad`` exactly as ``model.zero_grad()``
    plus a dynamic ``backward()`` would, and returns the loss.
    """
    inputs = {"x": np.asarray(x, dtype=np.float32), "y": np.asarray(y),
              "mask": mask}
    return float(replay_backward(model, _task_loss, inputs))


@dataclass
class TaskKnowledge:
    """The retained knowledge ``W_i`` of one learned task."""

    task_id: int
    position: int
    classes: np.ndarray
    num_total_classes: int
    indices: dict[str, np.ndarray]  # flat int32 positions of retained weights
    values: dict[str, np.ndarray]  # retained weight values, per param
    shapes: dict[str, tuple[int, ...]]
    buffers: dict[str, np.ndarray]  # BN running statistics
    ratio: float

    def class_mask(self) -> np.ndarray:
        mask = np.zeros(self.num_total_classes, dtype=bool)
        mask[self.classes] = True
        return mask

    def wire_state(self) -> dict[str, WireValue]:
        """This entry as a wire state: sparse params plus dense BN buffers."""
        state: dict[str, WireValue] = {
            name: SparseTensor(self.indices[name], self.values[name],
                               self.shapes[name])
            for name in self.values
        }
        state.update(self.buffers)
        return state

    @property
    def nbytes(self) -> int:
        """Size of this entry as an encoded sparse payload, byte-exact.

        Values travel as float32 and positions as int32; the figure is the
        codec's ``encoded_num_bytes`` of :meth:`wire_state`, so stored and
        billed bytes always agree.
        """
        return encoded_num_bytes(self.wire_state())

    def num_retained(self) -> int:
        return int(sum(v.size for v in self.values.values()))

    def restore_state(self) -> dict[str, np.ndarray]:
        """Materialise the pruned network's state dict (zeros off-support)."""
        state: dict[str, np.ndarray] = {}
        for name, shape in self.shapes.items():
            flat = np.zeros(int(np.prod(shape)), dtype=np.float32)
            flat[self.indices[name]] = self.values[name]
            state[name] = flat.reshape(shape)
        for name, buffer in self.buffers.items():
            state[name] = buffer.copy()
        return state


class KnowledgeExtractor:
    """Extracts the top-``rho`` scored weights as a task's signature knowledge.

    ``selector`` picks the scoring criterion — a spec string
    (``magnitude`` / ``fisher`` / ``hybrid:<mix>``), a
    :class:`~repro.curv.selector.SignatureSelector` instance, or ``None``
    for the paper's magnitude criterion (bit-identical to the pre-seam
    extractor).
    """

    def __init__(
        self,
        ratio: float = 0.10,
        finetune_iterations: int = 0,
        finetune_lr: float = 0.005,
        finetune_batch: int = 16,
        selector: str | SignatureSelector | None = None,
    ):
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"retention ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio
        self.finetune_iterations = finetune_iterations
        self.finetune_lr = finetune_lr
        self.finetune_batch = finetune_batch
        self.selector = create_selector(selector)

    def extract(
        self,
        model: ImageClassifier,
        task: ClientTask,
        scratch: ImageClassifier | None = None,
        rng: np.random.Generator | None = None,
    ) -> TaskKnowledge:
        """Extract ``TaskKnowledge`` from a trained model for ``task``.

        When ``finetune_iterations > 0`` and a ``scratch`` model is supplied,
        the retained weights are fine-tuned on the task data with all other
        weights frozen at zero (extraction step 3), improving the pruned
        network's label fidelity without touching the live model.
        """
        params = {name: p.data for name, p in model.named_parameters()}
        for name, value in params.items():
            if value.size > np.iinfo(np.int32).max:
                raise ValueError(
                    f"parameter {name!r} has {value.size} elements; flat "
                    "positions would overflow the wire format's int32 indices"
                )
        # global top-rho selection across all parameters (Eq. 1 with the
        # selector's scores standing in for |w|); tie-aware: exactly
        # round(rho * d) weights are retained even when scores tie at the
        # selection boundary
        scores = np.asarray(self.selector.scores(model, task, rng=rng)).ravel()
        d = int(sum(v.size for v in params.values()))
        if scores.size != d:
            raise ValueError(
                f"selector {self.selector.describe()!r} returned "
                f"{scores.size} scores for a model with {d} weights"
            )
        retained = d if self.ratio >= 1.0 else max(1, int(round(self.ratio * d)))
        keep_global = topk_magnitude_indices(scores, retained)

        sizes = np.array([v.size for v in params.values()])
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        indices: dict[str, np.ndarray] = {}
        values: dict[str, np.ndarray] = {}
        shapes: dict[str, tuple[int, ...]] = {}
        for position, (name, value) in enumerate(params.items()):
            lo = np.searchsorted(keep_global, offsets[position])
            hi = np.searchsorted(keep_global, offsets[position + 1])
            # a parameter may retain nothing — its restored values are zeros
            keep = (keep_global[lo:hi] - offsets[position]).astype(np.int32)
            indices[name] = keep
            values[name] = value.ravel()[keep].astype(np.float32).copy()
            shapes[name] = value.shape
        buffers = {
            name: np.array(buffer, copy=True)
            for name, buffer in model.named_buffers()
        }
        knowledge = TaskKnowledge(
            task_id=task.task_id,
            position=task.position,
            classes=task.classes.copy(),
            num_total_classes=task.num_total_classes,
            indices=indices,
            values=values,
            shapes=shapes,
            buffers=buffers,
            ratio=self.ratio,
        )
        if self.finetune_iterations > 0 and scratch is not None:
            self._finetune(knowledge, task, scratch, rng)
        return knowledge

    def _finetune(
        self,
        knowledge: TaskKnowledge,
        task: ClientTask,
        scratch: ImageClassifier,
        rng: np.random.Generator | None,
    ) -> None:
        """Fine-tune retained weights on the task with the rest frozen at zero."""
        from ..data.loader import sample_batch
        from ..utils.rng import get_rng

        rng = get_rng(rng)
        scratch.load_state_dict(knowledge.restore_state())
        scratch.train()
        optimizer = SGD(scratch.parameters(), lr=self.finetune_lr)
        masks = {
            name: knowledge.indices[name]
            for name, _ in scratch.named_parameters()
        }
        mask = task.class_mask()
        for _ in range(self.finetune_iterations):
            xb, yb = sample_batch(task.train_x, task.train_y, self.finetune_batch, rng)
            task_loss_backward(scratch, xb, yb, mask)
            # freeze non-retained weights: zero their gradients
            for name, param in scratch.named_parameters():
                if param.grad is None:
                    continue
                flat = param.grad.ravel()
                kept = np.zeros_like(flat)
                kept[masks[name]] = flat[masks[name]]
                param.grad = kept.reshape(param.grad.shape)
            optimizer.step()
        # write the fine-tuned values back into the knowledge entry
        for name, param in scratch.named_parameters():
            knowledge.values[name] = (
                param.data.ravel()[knowledge.indices[name]].astype(np.float32).copy()
            )


@dataclass
class KnowledgeStore:
    """A client's collection of per-task knowledge entries."""

    entries: list[TaskKnowledge] = field(default_factory=list)

    def add(self, knowledge: TaskKnowledge) -> None:
        self.entries.append(knowledge)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> TaskKnowledge:
        return self.entries[index]

    @property
    def nbytes(self) -> int:
        return int(sum(entry.nbytes for entry in self.entries))
