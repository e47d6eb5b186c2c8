"""FedVB: variational-Bayes federated continual learning.

A mean-field Gaussian baseline in the Variational-Bayes-for-FCL line: every
client maintains a diagonal posterior ``N(mu, 1/precision)`` over the model
weights instead of a point estimate.

* **Local training** draws a reparameterized weight sample
  ``w = mu + eps / sqrt(precision)`` per step, backpropagates the masked
  cross-entropy at ``w`` (the reparameterization trick makes ``dL/dw`` the
  stochastic gradient of the expected loss w.r.t. ``mu``), adds the
  KL-to-prior pull on the mean, and steps ``mu`` with the standard SGD
  optimizer.  The posterior precision follows an online Laplace update:
  ``precision = prior_precision + N * mean(grad**2)``.
* **Task boundaries** fold the posterior into the next task's prior
  (variational continual learning): what the client is confident about
  after a task anchors its mean there for the following tasks.
* **Aggregation** is precision-weighted (:class:`FedVBServer`): the global
  mean is ``sum_i c_i lam_i mu_i / sum_i c_i lam_i`` elementwise — a
  client's opinion about a weight counts in proportion to its certainty —
  and the global precision is the weighted mean of the client precisions.
  Per-parameter precisions travel in the upload state under
  ``vb_prec::<param>`` keys, so they ride the existing transports.

RNG discipline: posterior initialisation and per-step weight sampling draw
from two dedicated ``SeedSequence([config.seed, client_id])`` child streams,
so neither perturbs the shared data-sampling stream and runs stay
reproducible under any participation schedule.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..data.federated import ClientData
from ..data.loader import sample_batch
from ..models.base import ImageClassifier
from ..nn import functional as F
from ..nn.optim import SGD
from ..nn.schedules import InverseTimeDecay
from ..nn.tensor import Tensor
from ..nn.vector import FlatParamView, gradients_to_vector, vector_to_gradients
from ..utils.serialization import decode_state
from .base import FederatedClient
from .config import TrainConfig
from .protocol import ClientUpload
from .server import FedAvgServer, StreamingAccumulator

#: Upload-state key prefix carrying a parameter's posterior precision.
PRECISION_PREFIX = "vb_prec::"

#: Precisions are clipped here before any division.
MIN_PRECISION = 1e-8


class FedVBClient(FederatedClient):
    """Mean-field Gaussian posterior client with online Laplace precision."""

    method_name = "fedvb"
    process_safe = True
    batch_safe = False

    def __init__(
        self,
        client_id: int,
        data: ClientData,
        model: ImageClassifier,
        config: TrainConfig,
        prior_precision: float = 100.0,
        kl_weight: float = 1.0,
        init_jitter: float = 0.1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(client_id, data, model, config, rng)
        if prior_precision <= 0:
            raise ValueError(
                f"prior precision must be positive, got {prior_precision}"
            )
        self.prior_precision = float(prior_precision)
        self.kl_weight = float(kl_weight)
        self.optimizer = SGD(model.parameters(), lr=config.lr,
                             momentum=config.momentum)
        self._schedule = InverseTimeDecay(config.lr, config.lr_decay)
        self.view = FlatParamView(model.parameters())
        self._param_names = [name for name, _ in model.named_parameters()]
        d = self.view.total
        # dedicated sub-streams: [seed, client_id] spawns (init, sampling)
        init_seq, sample_seq = np.random.SeedSequence(
            [int(config.seed), int(client_id)]
        ).spawn(2)
        init_rng = np.random.default_rng(init_seq)
        self._sample_rng = np.random.default_rng(sample_seq)
        self.prior_mean = self.view.gather().astype(np.float64)
        self.prior_prec = np.full(d, self.prior_precision, dtype=np.float64)
        jitter = (
            np.exp(init_jitter * init_rng.standard_normal(d))
            if init_jitter > 0 else 1.0
        )
        self.precision = self.prior_prec * jitter
        self._sq_sum = np.zeros(d, dtype=np.float64)
        self._sq_count = 0

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def local_train(self, iterations: int) -> dict:
        if self.task is None:
            raise RuntimeError("local_train called before begin_task")
        mask = self.task.class_mask()
        self.model.train()
        params = self.model.parameters()
        n = max(self.num_train_samples, 1)
        mu = self.view.gather().astype(np.float64)
        losses = []
        for _ in range(iterations):
            xb, yb = sample_batch(
                self.task.train_x, self.task.train_y,
                self.config.batch_size, self.rng,
            )
            # reparameterized sample from the current posterior
            eps = self._sample_rng.standard_normal(self.view.total)
            sampled = mu + eps / np.sqrt(np.maximum(self.precision,
                                                    MIN_PRECISION))
            self.view.scatter(sampled.astype(np.float32))
            self.model.zero_grad()
            loss = F.cross_entropy(self.model(Tensor(xb)), yb, class_mask=mask)
            loss.backward()
            self.add_compute(1.0)
            grad = gradients_to_vector(params)
            # online Laplace precision from accumulated squared gradients
            self._sq_sum += grad * grad
            self._sq_count += 1
            self.precision = self.prior_prec + n * (
                self._sq_sum / self._sq_count
            )
            # KL pull of the mean toward the (previous tasks') prior
            kl_grad = self.prior_prec * (mu - self.prior_mean) / n
            vector_to_gradients(grad + self.kl_weight * kl_grad, params)
            # restore the mean and step it with the integrated gradient
            self.view.scatter(mu.astype(np.float32))
            self.global_iteration += 1
            self.optimizer.set_lr(self._schedule(self.global_iteration))
            self.optimizer.step()
            mu = self.view.gather().astype(np.float64)
            losses.append(loss.item())
        return {"mean_loss": float(np.mean(losses)), "iterations": iterations}

    # ------------------------------------------------------------------
    # wire protocol: mean + per-parameter precision
    # ------------------------------------------------------------------
    def upload_state(self) -> dict[str, np.ndarray]:
        state = self.model.state_dict()
        prec32 = self.precision.astype(np.float32)
        for name, sl, shape in zip(self._param_names, self.view.slices,
                                   self.view.shapes):
            state[PRECISION_PREFIX + name] = prec32[sl].reshape(shape)
        return state

    def receive_global(
        self, state: Mapping[str, np.ndarray], round_index: int
    ) -> None:
        state = dict(state)
        prec_entries = {
            key: state.pop(key)
            for key in list(state)
            if key.startswith(PRECISION_PREFIX)
        }
        self.model.load_state_dict(state)
        if prec_entries:
            flat = np.empty(self.view.total, dtype=np.float64)
            for name, sl in zip(self._param_names, self.view.slices):
                flat[sl] = np.asarray(
                    prec_entries[PRECISION_PREFIX + name], dtype=np.float64
                ).ravel()
            self.precision = np.maximum(flat, MIN_PRECISION)

    # ------------------------------------------------------------------
    # task boundary: variational continual learning's prior fold
    # ------------------------------------------------------------------
    def end_task(self) -> None:
        self.prior_mean = self.view.gather().astype(np.float64)
        self.prior_prec = np.maximum(self.precision, MIN_PRECISION).copy()
        self._sq_sum[:] = 0.0
        self._sq_count = 0

    def extra_state_bytes(self) -> dict[str, int]:
        # posterior precision + prior mean + prior precision, float32 rate
        return {"model": int(3 * self.view.total * 4), "samples": 0}


class FedVBServer(FedAvgServer):
    """Elementwise precision-weighted aggregation of Gaussian posteriors.

    For parameter keys carrying a ``vb_prec::`` partner the global posterior
    is the weighted product of the client Gaussians' natural parameters:
    ``lam_g = sum_i c_i lam_i`` and ``mu_g = sum_i c_i lam_i mu_i / lam_g``
    with ``c_i`` the normalized sample weights — weights a client is certain
    about dominate the average.  Float keys without a precision partner
    (e.g. BN buffers) fall back to the plain FedAvg weighted mean, and
    integer/bool keys keep the first client's value, exactly as
    :class:`~repro.federated.server.StreamingAccumulator` does.  Aggregation
    streams one decoded client state at a time and lands in
    :meth:`~repro.federated.server.FedAvgServer.install_aggregate`.
    """

    def aggregate(
        self,
        states: Sequence[ClientUpload],
        weights: Sequence[float],
    ) -> dict[str, np.ndarray]:
        if not states:
            raise ValueError(
                "no client states to aggregate (zero reported clients)"
            )
        if len(states) != len(weights):
            raise ValueError(
                f"got {len(states)} states but {len(weights)} weights"
            )
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("aggregation weights must sum to a positive value")
        densifier = StreamingAccumulator(base=self.global_state)
        key_order: list[str] | None = None
        key_set: set[str] = set()
        mean_sum: dict[str, np.ndarray] = {}  # sum c*lam*mu (or sum c*v)
        prec_sum: dict[str, np.ndarray] = {}  # sum c*lam
        fixed: dict[str, np.ndarray] = {}
        dtypes: dict[str, np.dtype] = {}
        for state, weight in zip(states, weights):
            if isinstance(state, (bytes, bytearray, memoryview)):
                state = decode_state(state, base=self.global_state)
            if key_order is None:
                key_order = list(state.keys())
                key_set = set(key_order)
            elif set(state.keys()) != key_set:
                raise ValueError("clients uploaded inconsistent state keys")
            coeff = weight / total
            dense = {
                key: densifier.materialise(key, state[key])
                for key in key_order
            }
            for key in key_order:
                value = dense[key]
                if key not in dtypes:
                    dtypes[key] = value.dtype
                    if not np.issubdtype(value.dtype, np.floating):
                        fixed[key] = np.array(value, copy=True)
                        continue
                if key in fixed:
                    continue
                value64 = np.asarray(value, dtype=np.float64)
                if key.startswith(PRECISION_PREFIX):
                    prec_sum[key] = prec_sum.get(key, 0.0) + coeff * value64
                elif PRECISION_PREFIX + key in dense:
                    lam = np.asarray(
                        dense[PRECISION_PREFIX + key], dtype=np.float64
                    )
                    mean_sum[key] = (
                        mean_sum.get(key, 0.0) + coeff * lam * value64
                    )
                else:
                    mean_sum[key] = mean_sum.get(key, 0.0) + coeff * value64
        final: dict[str, np.ndarray] = {}
        for key in key_order:
            if key in fixed:
                final[key] = fixed[key]
                continue
            if key.startswith(PRECISION_PREFIX):
                final[key] = prec_sum[key].astype(dtypes[key])
                continue
            partner = PRECISION_PREFIX + key
            if partner in prec_sum:
                denom = np.maximum(prec_sum[partner], MIN_PRECISION)
                final[key] = (mean_sum[key] / denom).astype(dtypes[key])
            else:
                final[key] = mean_sum[key].astype(dtypes[key])
        return self.install_aggregate(final)
