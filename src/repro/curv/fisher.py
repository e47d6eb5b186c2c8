"""The empirical diagonal Fisher information.

``F_j = (1/N) sum_n (dL_n/dw_j)**2`` over the masked cross-entropy loss with
the dataset's true labels — the squared gradients optimal-brain-damage
saliencies use, and the ``fisher`` selector's importance estimate.

The per-sample gradients replay a batch-1 tape of the loss that
:func:`~repro.nn.graph.model_tape` captures on the live model in eval mode
and keeps there, so one capture serves every later estimate while training
moves the weights and BN statistics.  Samples are stacked along the batched
replay's client axis a chunk at a time, with the live weights broadcast
across it (no copies; the replay only reads them), so an estimate costs
roughly one batched training step per chunk.  Graphs with an op that has
no batched form (batch norm) replay one sample at a time.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..nn.graph import model_tape


def _masked_ce(model, x, y, mask):
    return F.cross_entropy(model(x), y, class_mask=mask)


def empirical_fisher_diagonal(
    model,
    x: np.ndarray,
    y: np.ndarray,
    class_mask: np.ndarray,
    chunk: int = 32,
) -> np.ndarray:
    """Mean squared per-sample gradient at the true labels, flat float64.

    The result is in canonical ``named_parameters`` order.  A permutation
    of the samples, or another ``chunk``, changes it only through float64
    summation order (the last bits).  The model's train/eval flags are
    left as they were.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if len(y) == 0:
        raise ValueError("cannot estimate Fisher information from 0 samples")
    mask = np.asarray(class_mask, dtype=bool)
    modes = [(module, module.training) for module in model.modules()]
    model.eval()
    try:
        tape, order = model_tape(
            model, _masked_ce, {"x": x[:1], "y": y[:1], "mask": mask}
        )
    finally:
        for module, training in modes:
            module.training = training
    params = model.parameters()
    arrays = [params[j].data for j in order]
    offsets = np.concatenate([[0], np.cumsum([p.data.size for p in params])])
    slot_offsets = [int(offsets[j]) for j in order]
    total = np.zeros(int(offsets[-1]), dtype=np.float64)
    use_batched = not tape.batch_unsupported_ops()
    step = max(1, int(chunk))
    for start in range(0, len(y), step):
        xb = x[start:start + step]
        yb = y[start:start + step]
        b = len(yb)
        if use_batched and b > 1:
            inputs = {
                "x": xb[:, None],
                "y": yb.reshape(b, 1),
                "mask": np.broadcast_to(mask, (b,) + mask.shape),
            }
            stacked = [np.broadcast_to(a, (b,) + a.shape) for a in arrays]
            _, grads = tape.replay_grad_batched(inputs, stacked, b)
            for lo, g in zip(slot_offsets, grads):
                if g is not None:
                    flat = g.reshape(b, -1).astype(np.float64)
                    total[lo:lo + flat.shape[1]] += (flat * flat).sum(axis=0)
        else:
            for i in range(b):
                inputs = {"x": xb[i:i + 1], "y": yb[i:i + 1], "mask": mask}
                _, grads = tape.replay_grad(inputs, arrays)
                for lo, g in zip(slot_offsets, grads):
                    if g is not None:
                        flat = g.ravel().astype(np.float64)
                        total[lo:lo + flat.size] += flat * flat
    return total / len(y)
