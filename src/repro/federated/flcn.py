"""FLCN — Continual Local Training (Yao & Sun, 2020).

Clients are plain FedAvg learners; forgetting is handled **server-side**: on
each new task, every client shares a fraction of its training samples with the
server, which replays the accumulated buffer after every aggregation (see
:class:`~repro.federated.server.FLCNServer`).  The paper cites the privacy
cost of this sample sharing as FLCN's key limitation.
"""

from __future__ import annotations

import numpy as np

from ..data.federated import ClientData
from ..models.base import ImageClassifier
from ..utils.rng import get_rng
from .base import SGDClient
from .config import TrainConfig
from .server import FLCNServer


class FLCNClient(SGDClient):
    """FedAvg client that shares replay samples with the FLCN server."""

    method_name = "flcn"
    # shares raw samples with the live server mid-round; a worker-process
    # copy of the server would silently drop them
    process_safe = False
    # the batched engine does not take flcn (``BATCH_SAFE_METHODS``); the
    # default strategy's flag, which SGDClient reports, would say it does
    batch_safe = False

    def __init__(
        self,
        client_id: int,
        data: ClientData,
        model: ImageClassifier,
        config: TrainConfig,
        server: FLCNServer,
        share_fraction: float = 0.10,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(client_id, data, model, config, strategy=None, rng=rng)
        self.method_name = "flcn"
        if not 0.0 < share_fraction <= 1.0:
            raise ValueError(
                f"share_fraction must be in (0, 1], got {share_fraction}"
            )
        self.server = server
        self.share_fraction = share_fraction
        self._pending_sample_bytes = 0

    def begin_task(self, position: int) -> None:
        super().begin_task(position)
        # share a random sample fraction with the server for global rehearsal
        n = self.task.num_train
        keep = max(int(round(self.share_fraction * n)), 1)
        indices = self.rng.choice(n, size=keep, replace=False)
        x = self.task.train_x[indices]
        y = self.task.train_y[indices]
        self.server.receive_samples(x, y, self.task.class_mask())
        self._pending_sample_bytes = int(x.nbytes)

    def upload_sample_bytes(self) -> int:
        """Report the shared samples' bytes on the first round of each task."""
        pending = self._pending_sample_bytes
        self._pending_sample_bytes = 0
        return pending
