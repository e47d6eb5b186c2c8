"""The FedKNOW client (Section III): extractor + restorer + integrator.

Per local iteration, the client computes the current task's gradient,
restores the gradients of its k most dissimilar retained tasks (the signature
tasks) through the gradient restorer, and updates with the integrated
gradient that keeps an acute angle to all of them — preventing catastrophic
forgetting.  After every global aggregation, it fine-tunes for one local
epoch, integrating each step's gradient with the gradient of the
pre-aggregation model so the global information is absorbed without negative
transfer.  When a task finishes, the knowledge extractor prunes and stores
the task's signature knowledge.

Every gradient step — the local step, the restorer's passes, the
receive-phase probe and fine-tune, and the extraction fine-tune — replays a
graph tape captured on the model it trains (:mod:`repro.nn.graph`); gradient
integration and the extraction mask rewrite the replayed gradients before
the ordinary optimiser step.  A local step replays the live model's forward
once where the restorer's gate allows it: the task gradient and each
restored gradient pull back through that one forward
(:class:`~repro.core.restorer.LiveForward`).
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..data.federated import ClientData
from ..data.loader import iterate_batches, sample_batch
from ..federated.base import FederatedClient
from ..federated.config import TrainConfig
from ..models.base import ImageClassifier
from ..nn.optim import SGD
from ..nn.schedules import InverseTimeDecay
from ..nn.vector import gradients_to_vector, vector_to_gradients
from .config import FedKnowConfig
from .distance import select_signature_tasks
from .integrator import GradientIntegrator
from .knowledge import KnowledgeExtractor, KnowledgeStore, task_loss_backward
from .restorer import GradientRestorer, LiveForward


class FedKnowClient(FederatedClient):
    """Federated continual learner with signature-task knowledge integration."""

    method_name = "fedknow"

    def __init__(
        self,
        client_id: int,
        data: ClientData,
        model: ImageClassifier,
        config: TrainConfig,
        model_factory: Callable[[], ImageClassifier],
        fedknow: FedKnowConfig | None = None,
        rng: np.random.Generator | None = None,
        selector: str | None = None,
    ):
        super().__init__(client_id, data, model, config, rng)
        self.fedknow = fedknow or FedKnowConfig()
        self.extractor = KnowledgeExtractor(
            ratio=self.fedknow.knowledge_ratio,
            finetune_iterations=self.fedknow.extraction_finetune_iterations,
            finetune_lr=self.fedknow.extraction_finetune_lr,
            selector=selector,
        )
        self.store = KnowledgeStore()
        self._scratch = model_factory()
        self.restorer = GradientRestorer(self._scratch)
        self.integrator = GradientIntegrator(
            solver=self.fedknow.qp_solver, margin=self.fedknow.qp_margin
        )
        self.optimizer = SGD(model.parameters(), lr=config.lr,
                             momentum=config.momentum)
        self._schedule = InverseTimeDecay(config.lr, config.lr_decay)
        self._signature_indices: np.ndarray | None = None
        self._iterations_since_refresh = 0
        self.integration_stats = {"rotations": 0, "integrations": 0}

    # ------------------------------------------------------------------
    # signature selection
    # ------------------------------------------------------------------
    def _signature_gradients(self, current_grad: np.ndarray, inputs: np.ndarray,
                             forward: LiveForward | None) -> np.ndarray:
        """The step's restored gradients (through ``forward`` if any): all
        m while m <= k, else the k signature tasks', which a due refresh
        picks by restoring all m and keeping the k most dissimilar."""
        k = self.fedknow.num_signature_gradients
        entries = list(self.store)
        refresh = len(entries) > k and (
            self._signature_indices is None
            or self._iterations_since_refresh >= self.fedknow.signature_refresh
        )
        if len(entries) > k and not refresh:
            entries = [entries[i] for i in self._signature_indices]
        grads = self.restorer.restore_gradients(self.model, entries, inputs,
                                                forward)
        self.add_compute(float(len(entries)))
        if refresh:
            self._signature_indices = select_signature_tasks(
                current_grad, grads, k, metric=self.fedknow.distance_metric
            )
            self._iterations_since_refresh = 0
            grads = grads[self._signature_indices]
        self._iterations_since_refresh += 1
        return grads

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def local_train(self, iterations: int) -> dict:
        if self.task is None:
            raise RuntimeError("local_train called before begin_task")
        mask = self.task.class_mask()
        self.model.train()
        losses = []
        for _ in range(iterations):
            xb, yb = sample_batch(
                self.task.train_x, self.task.train_y, self.config.batch_size, self.rng
            )
            # one replayed forward for the task gradient and every restored
            # gradient, where the restorer's gate allows it
            forward = self.restorer.live_forward(self.model, xb)
            if forward is None:
                loss = task_loss_backward(self.model, xb, yb, mask)
            else:
                loss = float(forward.backward("cross_entropy", np.asarray(yb), mask))
            self.add_compute(1.0)
            if len(self.store) > 0:
                current = gradients_to_vector(self.model.parameters())
                signature_grads = self._signature_gradients(current, xb, forward)
                result = self.integrator.integrate(current, signature_grads)
                self.integration_stats["integrations"] += 1
                if result.rotated:
                    self.integration_stats["rotations"] += 1
                vector_to_gradients(result.gradient, self.model.parameters())
            forward = None  # its contexts go before the next step's forward
            self.global_iteration += 1
            self.optimizer.set_lr(self._schedule(self.global_iteration))
            self.optimizer.step()
            losses.append(loss)
        return {"mean_loss": float(np.mean(losses)), "iterations": iterations}

    # ------------------------------------------------------------------
    # aggregation handling (negative-transfer prevention)
    # ------------------------------------------------------------------
    def _task_gradient(self, xb: np.ndarray, yb: np.ndarray) -> np.ndarray:
        """Current-task gradient at the model's present weights."""
        task_loss_backward(self.model, xb, yb, self.task.class_mask())
        grad = gradients_to_vector(self.model.parameters())
        self.model.zero_grad()
        return grad

    def receive_global(self, state: Mapping[str, np.ndarray], round_index: int) -> None:
        if not self.fedknow.aggregation_integration or self.task is None:
            super().receive_global(state, round_index)
            return
        # gradient of the local data at the **pre-aggregation** weights
        probe_x, probe_y = sample_batch(
            self.task.train_x, self.task.train_y, self.config.batch_size, self.rng
        )
        grad_before = self._task_gradient(probe_x, probe_y)
        self.add_compute(1.0)
        self.model.load_state_dict(dict(state))
        # fine-tune one local epoch, rotating each step's gradient to stay
        # acute with the pre-aggregation direction
        mask = self.task.class_mask()
        self.model.train()
        batches = iterate_batches(
            self.task.train_x, self.task.train_y, self.config.batch_size, self.rng
        )
        limit = self.fedknow.aggregation_finetune_batches
        for index, (xb, yb) in enumerate(batches):
            if limit is not None and index >= limit:
                break
            task_loss_backward(self.model, xb, yb, mask)
            self.add_compute(1.0)
            grad_after = gradients_to_vector(self.model.parameters())
            result = self.integrator.integrate(grad_after, grad_before[None, :])
            self.integration_stats["integrations"] += 1
            if result.rotated:
                self.integration_stats["rotations"] += 1
            vector_to_gradients(result.gradient, self.model.parameters())
            self.global_iteration += 1
            self.optimizer.set_lr(self._schedule(self.global_iteration))
            self.optimizer.step()

    # ------------------------------------------------------------------
    # task boundary
    # ------------------------------------------------------------------
    def end_task(self) -> None:
        knowledge = self.extractor.extract(
            self.model, self.task, scratch=self._scratch, rng=self.rng
        )
        self.store.add(knowledge)
        self._signature_indices = None
        self._iterations_since_refresh = 0
        self.add_compute(float(self.fedknow.extraction_finetune_iterations))

    def extra_state_bytes(self) -> dict[str, int]:
        return {"model": self.store.nbytes, "samples": 0}
