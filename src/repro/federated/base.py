"""Federated client abstractions.

:class:`FederatedClient` defines the protocol the simulation trainer drives:
``begin_task`` -> (``local_train`` -> ``upload_state`` -> ``receive_global``)
per round -> ``end_task``.  :class:`SGDClient` implements the standard local
SGD loop and delegates continual-learning behaviour to a pluggable
:class:`~repro.continual.base.ContinualStrategy` — this is how the six
continual-learning baselines run inside the federated framework (they address
forgetting locally while FedAvg aggregation exposes them to negative
transfer, exactly the comparison of Fig. 4).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..data.federated import ClientData, ClientTask
from ..data.loader import sample_batch
from ..models.base import ImageClassifier
from ..nn import functional as F
from ..nn.optim import SGD
from ..nn.schedules import InverseTimeDecay
from ..nn.tensor import Tensor
from ..utils.rng import get_rng
from .config import TrainConfig
from .protocol import ClientUpdate, ClientUpload
from .transport import Channel, WirePayload


class FederatedClient:
    """Base protocol for a federated continual-learning client."""

    method_name: str = "base"
    #: Whether this client's round work may run in a worker process.  False
    #: for methods whose clients mutate or read live server state during a
    #: round (FLCN sample sharing, FedWEIT's adaptive registry) — those
    #: side effects would be lost across a process boundary.
    process_safe: bool = True
    #: Whether this client's local training may be folded into one batched
    #: graph replay alongside other clients (pure loss→backward→SGD, no
    #: gradient surgery or per-step retained state).  :class:`SGDClient`
    #: derives this from its strategy.
    batch_safe: bool = False

    def __init__(
        self,
        client_id: int,
        data: ClientData,
        model: ImageClassifier,
        config: TrainConfig,
        rng: np.random.Generator | None = None,
    ):
        self.client_id = client_id
        self.data = data
        self.model = model
        self.config = config
        self.rng = get_rng(rng)
        self.position: int | None = None
        self.task: ClientTask | None = None
        self.global_iteration = 0
        self._compute_units = 0.0

    # ------------------------------------------------------------------
    # compute accounting (drives the simulated training-time model)
    # ------------------------------------------------------------------
    def add_compute(self, units: float) -> None:
        """Record ``units`` forward+backward batch passes of work."""
        self._compute_units += units

    def take_compute_units(self) -> float:
        """Return and reset the accumulated compute units (read per round)."""
        units = self._compute_units
        self._compute_units = 0.0
        return units

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def begin_task(self, position: int) -> None:
        """Switch to the task at ``position`` in this client's sequence."""
        if not 0 <= position < self.data.num_tasks:
            raise IndexError(
                f"position {position} out of range [0, {self.data.num_tasks})"
            )
        self.position = position
        self.task = self.data.task_at(position)

    def local_train(self, iterations: int) -> dict:
        raise NotImplementedError

    def upload_state(self) -> dict[str, np.ndarray]:
        """State dict sent to the server for aggregation."""
        return self.model.state_dict()

    def receive_global(self, state: Mapping[str, np.ndarray], round_index: int) -> None:
        """Install the aggregated global state."""
        self.model.load_state_dict(dict(state))

    def end_task(self) -> None:
        """Called after the final aggregation round of the current task."""

    def build_update(
        self,
        stats: Mapping[str, float],
        state: ClientUpload | None = None,
        upload_bytes: int = 0,
        sim_seconds: float = 0.0,
    ) -> ClientUpdate:
        """Package this round's contribution as a typed wire message.

        ``stats`` is the dict :meth:`local_train` returned; ``state`` is the
        payload the transport decoded (``None`` falls back to a fresh
        :meth:`upload_state`); ``upload_bytes`` and ``sim_seconds`` carry
        the trainer's edge-simulation figures (channel-priced payload size,
        simulated train + upload seconds).  Consumes the accumulated
        compute units.
        """
        return ClientUpdate(
            client_id=self.client_id,
            state=state if state is not None else self.upload_state(),
            num_samples=self.num_train_samples,
            mean_loss=float(stats.get("mean_loss", np.nan)),
            iterations=int(stats.get("iterations", 0)),
            upload_bytes=upload_bytes,
            compute_units=self.take_compute_units(),
            sim_seconds=sim_seconds,
        )

    # ------------------------------------------------------------------
    # process-boundary support
    # ------------------------------------------------------------------
    def detach_data(self) -> ClientData:
        """Strip the task stream before this client crosses a process
        boundary; returns the detached data so the caller can reattach it.

        Task data is deterministic and reconstructible (see
        :class:`~repro.data.scenario.ClientDataFactory`), so the socket
        round engine ships clients without it — its workers rebuild the data
        locally instead of paying to pickle the task arrays.
        """
        data = self.data
        self.data = None
        self.task = None
        return data

    def attach_data(self, data: ClientData) -> None:
        """Reattach task data after a process crossing (inverse of
        :meth:`detach_data`); restores the current task from ``position``."""
        if data is None:
            raise ValueError("cannot attach empty client data")
        self.data = data
        if self.position is not None:
            self.task = data.task_at(self.position)

    # ------------------------------------------------------------------
    # transport (communication accounting moved behind the channel)
    # ------------------------------------------------------------------
    def prepare_upload(self, channel: Channel) -> WirePayload:
        """Pack this round's upload for the negotiated channel.

        The channel owns the wire policy: dense states pass through, and
        once it has a warmed-up base it turns the same state into top-k
        delta or signature-sparse records.  Byte counts come from the
        channel's exact codec arithmetic — clients no longer price their
        own payloads.
        """
        return channel.prepare(self.upload_state())

    def extra_upload_bytes(self) -> int:
        """Method-specific side-channel upload bytes (e.g. FedWEIT's
        sparse adaptives) that ride along with the state payload."""
        return 0

    def extra_download_bytes(self) -> int:
        """Method-specific side-channel download bytes (consumed once)."""
        return 0

    def extra_state_bytes(self) -> dict[str, int]:
        """Method-specific retained state, split by kind for cost projection.

        Returns ``{"model": bytes, "samples": bytes}`` at this reproduction's
        scale; the cost model projects model-shaped state by the parameter
        ratio and sample-shaped state by the dataset's raw-sample ratio.
        """
        return {"model": 0, "samples": 0}

    def upload_sample_bytes(self) -> int:
        """Raw-sample bytes uploaded this round (FLCN's server rehearsal)."""
        return 0

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @property
    def num_train_samples(self) -> int:
        if self.task is None:
            return 0
        return self.task.num_train

    def current_lr(self) -> float:
        schedule = InverseTimeDecay(self.config.lr, self.config.lr_decay)
        return schedule(self.global_iteration + 1)

    def evaluate(self, upto_position: int | None = None) -> list[float]:
        """Top-1 accuracy on the test split of every learned task.

        Evaluation is task-incremental: each task's logits are masked to the
        client's classes for that task, matching the paper's protocol.
        """
        if upto_position is None:
            upto_position = self.position if self.position is not None else -1
        self.model.eval()
        accuracies = []
        for position in range(upto_position + 1):
            task = self.data.task_at(position)
            mask = task.class_mask()
            logits = self.model.logits(task.test_x)
            accuracies.append(F.accuracy(logits, task.test_y, class_mask=mask))
        self.model.train()
        return accuracies


class SGDClient(FederatedClient):
    """Plain local-SGD client with pluggable continual-learning strategy."""

    method_name = "fedavg"

    def __init__(
        self,
        client_id: int,
        data: ClientData,
        model: ImageClassifier,
        config: TrainConfig,
        strategy=None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(client_id, data, model, config, rng)
        self.optimizer = SGD(
            model.parameters(), lr=config.lr, momentum=config.momentum
        )
        self._schedule = InverseTimeDecay(config.lr, config.lr_decay)
        if strategy is None:
            from ..continual.base import FinetuneStrategy

            strategy = FinetuneStrategy()
        self.strategy = strategy
        self.strategy.bind(self)
        if strategy.name != "finetune":
            self.method_name = strategy.name
        #: Stats stashed by a batched engine's pre-pass; consumed (and
        #: cleared) by the next ``local_train`` call instead of retraining.
        self._pending_batched_stats: dict | None = None

    @property
    def batch_safe(self) -> bool:  # type: ignore[override]
        return self.strategy.batch_safe

    def begin_task(self, position: int) -> None:
        super().begin_task(position)
        self.strategy.begin_task(self.task)

    def local_train(self, iterations: int) -> dict:
        """Run ``iterations`` SGD steps on the current task."""
        if self.task is None:
            raise RuntimeError("local_train called before begin_task")
        if self._pending_batched_stats is not None:
            stats = self._pending_batched_stats
            self._pending_batched_stats = None
            if stats["iterations"] != iterations:
                raise RuntimeError(
                    f"batched pre-pass trained {stats['iterations']} "
                    f"iterations but the round asked for {iterations}"
                )
            return stats
        self.model.train()
        mask = self.task.class_mask()
        losses = []
        for _ in range(iterations):
            xb, yb = sample_batch(
                self.task.train_x, self.task.train_y, self.config.batch_size, self.rng
            )
            self.optimizer.zero_grad()
            loss = self.strategy.loss(self.model, xb, yb, mask)
            loss.backward()
            self.strategy.post_backward(self.model, xb, yb, mask)
            self.add_compute(1.0 + self.strategy.extra_compute_units())
            self.global_iteration += 1
            self.optimizer.set_lr(self._schedule(self.global_iteration))
            self.optimizer.step()
            losses.append(loss.item())
        return {"mean_loss": float(np.mean(losses)), "iterations": iterations}

    def end_task(self) -> None:
        self.strategy.end_task(self.task, self.model)

    def extra_state_bytes(self) -> dict[str, int]:
        return self.strategy.state_bytes()
