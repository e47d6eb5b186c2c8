"""Batched multi-client local training on a captured graph tape.

One round of federated continual learning runs the same architecture for
every participating client.  Instead of executing B independent dynamic
autograd loops, this module captures the training graph **once** per
(architecture, task shape) on a throwaway model copy, then replays it with
every client's weights and minibatch stacked along a leading axis — one
batched forward/backward per step (broadcast GEMMs inside
:mod:`repro.nn.functional`) followed by one flat SGD update on a ``(B, D)``
weight buffer.

Per-client semantics are preserved exactly:

* each client's RNG draws its own minibatches in the same order as the
  serial loop (``sample_batch`` per client per iteration);
* learning rates follow each client's own schedule, applied as a float32
  ``(B, 1)`` column (numpy's weak scalar promotion makes this bit-identical
  to the serial python-float multiply);
* momentum state is gathered from and scattered back to each client's
  optimiser, and losses/compute accounting mirror
  :meth:`~repro.federated.base.SGDClient.local_train` per client.

Every op the default model records is ``batch_exact`` (verified bit-identical
per slice), so a batched round equals a serial round to the bit; the
bit-identity suite in ``tests/test_batched.py`` enforces this.  Clients whose
strategy keeps per-step state or rewrites gradients opt out via the
``batch_safe`` flag and must use a non-batched engine.
"""

from __future__ import annotations

import pickle

import numpy as np

from ..data.loader import sample_batch
from ..nn.graph import GraphTape
from ..nn.optim import sgd_update_flat
from ..nn.tensor import Tensor


def _tape_key(client) -> tuple:
    """Cache key: everything the captured program's shape depends on."""
    task = client.task
    return (
        type(client.model).__qualname__,
        tuple(shape for _, shape in _named_shapes(client.model)),
        type(client.strategy).__qualname__,
        client.config.batch_size,
        task.train_x.shape[1:],
        str(task.train_x.dtype),
        str(task.train_y.dtype),
        task.class_mask().shape,
    )


def _named_shapes(model):
    return [(name, p.data.shape) for name, p in model.named_parameters()]


def capture_client_tape(client) -> tuple[GraphTape, list[int]]:
    """Capture one client's training step as a static graph.

    The capture runs on a pickle-roundtrip copy of the client's model so no
    live state (parameters, BN buffers) is perturbed, with zero-filled
    example arrays of the real minibatch shapes registered as tape inputs.
    Returns the finalized tape plus the slot→parameter-index order (indices
    into ``model.parameters()``, identical for every same-architecture
    client).
    """
    model = pickle.loads(pickle.dumps(client.model))
    model.train()
    params = model.parameters()
    task = client.task
    bs = client.config.batch_size
    x_ex = Tensor(np.zeros((bs,) + task.train_x.shape[1:], dtype=task.train_x.dtype))
    y_ex = Tensor(
        np.zeros((bs,), dtype=task.train_y.dtype), dtype=task.train_y.dtype
    )
    mask_arr = task.class_mask()
    mask_ex = Tensor(mask_arr, dtype=mask_arr.dtype)
    tape = GraphTape()
    with tape.capture():
        tape.add_input("x", x_ex)
        tape.add_input("y", y_ex)
        tape.add_input("mask", mask_ex)
        loss = client.strategy.loss(model, x_ex, y_ex, mask_ex)
        tape.set_output(loss)
    if tape.num_params != len(params):
        raise RuntimeError(
            f"captured graph reaches {tape.num_params} of the model's "
            f"{len(params)} parameters; batched execution requires every "
            f"parameter in the graph — use a non-batched engine"
        )
    order = tape.bind_parameters(params)
    return tape, order


def _check_homogeneous(clients) -> None:
    first = clients[0].optimizer
    for c in clients[1:]:
        opt = c.optimizer
        if (
            opt.momentum != first.momentum
            or opt.weight_decay != first.weight_decay
            or opt.nesterov != first.nesterov
        ):
            raise ValueError(
                "batched execution requires homogeneous optimiser "
                "hyperparameters (momentum/weight_decay/nesterov) across "
                "the chunk"
            )


def train_chunk(clients, iterations: int, tape: GraphTape, order: list[int]) -> None:
    """Train up to B clients for ``iterations`` steps in one batched replay.

    Leaves each client exactly as :meth:`SGDClient.local_train` would —
    updated weights, momentum, LR, iteration counter, compute units — and
    stashes the per-client stats dict on ``client._pending_batched_stats``
    for the trainer's normal ``local_train`` call to consume.
    """
    _check_homogeneous(clients)
    b = len(clients)
    view = clients[0].model.flat_parameter_view()
    opt0 = clients[0].optimizer
    momentum = opt0.momentum
    weight_decay = opt0.weight_decay
    nesterov = opt0.nesterov
    bs = clients[0].config.batch_size

    wbuf = np.empty((b, view.total), dtype=np.float32)
    gbuf = np.empty((b, view.total), dtype=np.float32)
    vbuf = np.empty((b, view.total), dtype=np.float32) if momentum else None
    lr_col = np.empty((b, 1), dtype=np.float32)
    for i, c in enumerate(clients):
        c.model.train()
        view.gather(out=wbuf[i], params=c.model.parameters())
        if momentum:
            c.optimizer.velocity_to_flat(view, out=vbuf[i])

    stacked = [np.empty((b,) + shape, dtype=np.float32) for shape in view.shapes]
    slot_arrays = [stacked[j] for j in order]
    masks = np.stack([c.task.class_mask() for c in clients])
    losses: list[list[float]] = [[] for _ in clients]

    for _ in range(iterations):
        xs, ys = [], []
        for c in clients:
            xb, yb = sample_batch(c.task.train_x, c.task.train_y, bs, c.rng)
            xs.append(np.asarray(xb, dtype=np.float32))
            ys.append(yb)
        inputs = {"x": np.stack(xs), "y": np.stack(ys), "mask": masks}
        view.scatter_stacked(wbuf, stacked)
        out, grads = tape.replay_grad_batched(inputs, slot_arrays, b)
        for slot_i, j in enumerate(order):
            g = grads[slot_i]
            if g is None:
                gbuf[:, view.slices[j]] = 0.0
            else:
                gbuf[:, view.slices[j]] = g.reshape(b, -1)
        for i, c in enumerate(clients):
            c.add_compute(1.0 + c.strategy.extra_compute_units())
            c.global_iteration += 1
            lr_col[i, 0] = np.float32(c._schedule(c.global_iteration))
            losses[i].append(float(out[i]))
        sgd_update_flat(
            wbuf, gbuf, vbuf, lr_col, momentum, weight_decay, nesterov
        )

    for i, c in enumerate(clients):
        view.scatter(wbuf[i], params=c.model.parameters())
        if momentum:
            c.optimizer.velocity_from_flat(view, vbuf[i])
        c.optimizer.set_lr(c._schedule(c.global_iteration))
        c._pending_batched_stats = {
            "mean_loss": float(np.mean(losses[i])),
            "iterations": iterations,
        }


def train_clients_batched(
    clients,
    iterations: int,
    batch_clients: int | None,
    tape_cache: dict,
) -> None:
    """Train all ``clients`` in chunks of at most ``batch_clients``.

    ``tape_cache`` maps :func:`_tape_key` to a captured ``(tape, order)``
    pair; one capture per (architecture, task shape) serves every chunk and
    every round.
    """
    clients = list(clients)
    if not clients:
        return
    chunk_size = batch_clients or len(clients)
    for start in range(0, len(clients), chunk_size):
        chunk = clients[start : start + chunk_size]
        key = _tape_key(chunk[0])
        entry = tape_cache.get(key)
        if entry is None:
            entry = tape_cache[key] = capture_client_tape(chunk[0])
        tape, order = entry
        train_chunk(chunk, iterations, tape, order)
