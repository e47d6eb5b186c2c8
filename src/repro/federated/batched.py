"""Batched multi-client local training on a captured graph tape.

One round of federated continual learning runs the same architecture for
every participating client.  Instead of executing B independent dynamic
autograd loops, each chunk of clients replays one training-loss tape that
:func:`~repro.nn.graph.model_tape` captured on the chunk leader's live
model (in train mode, on its first step as a leader, and kept on that
model), with every client's weights and minibatch stacked along a leading
axis — one batched forward/backward per step (broadcast GEMMs inside
:mod:`repro.nn.functional`) followed by one flat SGD update on a ``(B, D)``
weight buffer.  A round runs in the fewest balanced chunks of at most
:data:`DEFAULT_CHUNK_CLIENTS` clients, or of ``B`` under ``batched:B``
(:func:`train_clients_batched`).

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

import numpy as np

from ..data.loader import sample_batch
from ..nn.graph import model_tape
from ..nn.optim import sgd_update_flat
from ..obs.metrics import METRICS

#: Without ``batched:B`` a round runs in chunks of at most this many clients.
#: A replay's peak grows with its chunk while small chunks pay per-step
#: dispatch: one 8-iteration round of 16 SixCNN clients (3x16x16, batch 8)
#: peaks at 59.4 / 30.5 / 16.1 MB under tracemalloc at 16 / 8 / 4 clients
#: per chunk, for 1.000 / 1.017 / 1.032 times the CPU of one chunk (median
#: of 40 interleaved repeats on a 2-vCPU Xeon host).
DEFAULT_CHUNK_CLIENTS = 8

_CHUNK_CLIENTS = METRICS.gauge("batched.chunk_clients")


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


def train_chunk(clients, iterations: int) -> None:
    """Train up to B clients for ``iterations`` steps in one batched replay.

    The replayed tape is ``clients[0].strategy.loss`` on one minibatch,
    from :func:`~repro.nn.graph.model_tape` on that leader's live model.
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

    leader, task = clients[0], clients[0].task
    tape, order = model_tape(leader.model, leader.strategy.loss, {
        "xb": np.zeros((bs,) + task.train_x.shape[1:], dtype=np.float32),
        "yb": np.zeros((bs,), dtype=task.train_y.dtype),
        "class_mask": task.class_mask(),
    })
    if tape.num_params != len(view.shapes):
        raise RuntimeError(
            f"captured graph reaches {tape.num_params} of the model's "
            f"{len(view.shapes)} parameters; batched execution requires "
            f"every parameter in the graph — use a non-batched engine"
        )
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
        inputs = {"xb": np.stack(xs), "yb": np.stack(ys), "class_mask": masks}
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
    clients, iterations: int, batch_clients: int | None
) -> None:
    """Train all ``clients`` in the fewest chunks of at most ``batch_clients``
    whose sizes differ by at most one; each chunk replays its leader's tape
    (see :func:`train_chunk`).

    With ``batch_clients`` None the cap is :data:`DEFAULT_CHUNK_CLIENTS`.
    Chunking changes no bit: each client's slice of a replay does not
    depend on the others.  The gauge ``batched.chunk_clients`` holds the
    largest chunk of the last call.
    """
    clients = list(clients)
    if not clients:
        return
    cap = batch_clients or DEFAULT_CHUNK_CLIENTS
    chunks = -(-len(clients) // cap)
    size, longer = divmod(len(clients), chunks)
    _CHUNK_CLIENTS.set(size + (longer > 0))
    start = 0
    for k in range(chunks):
        stop = start + size + (k < longer)
        train_chunk(clients[start:stop], iterations)
        start = stop
