"""Experiment metrics: average accuracy, forgetting rate, communication, time.

The paper's metrics (Section V-A / V-D):

* **accuracy of task ``t_m``** — the average top-1 accuracy over all ``m``
  learned tasks (averaged across clients here);
* **forgetting rate of task ``k`` after ``m`` tasks** — the drop of task
  ``k``'s accuracy relative to its accuracy right after it was learned:
  ``(acc_k(k) - acc_k(m)) / acc_k(k)``, reported as the mean over ``k < m``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class RoundRecord:
    """Accounting for one global aggregation round."""

    position: int
    round_index: int
    upload_bytes: int
    download_bytes: int
    sim_train_seconds: float
    sim_comm_seconds: float
    active_clients: int
    mean_loss: float
    # participation accounting (defaults describe full synchronous rounds,
    # the pre-policy behaviour: everyone planned, everyone reported in time)
    planned_clients: int = -1
    reported_clients: int = -1
    stale_clients: int = 0
    #: Straggler updates dropped this round for exceeding the policy's
    #: ``max_staleness`` carry bound (0 under the default one-round carry).
    evicted: int = 0
    #: What the round's uploads would have cost as dense v1 (the transport
    #: compression baseline); defaults to ``upload_bytes`` (no compression).
    raw_upload_bytes: int = -1
    #: True when nobody reported and no straggler work was pending: the
    #: global model was left untouched and aggregation never ran.
    skipped: bool = False
    #: Planned clients whose worker died mid-round (socket engine); their
    #: round work was dropped and the policy replanned with the survivors.
    lost: int = 0

    def __post_init__(self):
        if self.planned_clients < 0:
            self.planned_clients = self.active_clients
        if self.reported_clients < 0:
            self.reported_clients = self.planned_clients
        if self.raw_upload_bytes < 0:
            self.raw_upload_bytes = self.upload_bytes

    @property
    def upload_compression(self) -> float:
        """Compressed-vs-raw upload ratio (1.0 = dense, >1 = savings).

        A round with no uploads at all (skipped, or every client lost) has
        no meaningful ratio on either axis, so both zero-byte cases pin to
        the neutral 1.0 instead of returning 0 or dividing by zero.
        """
        if self.upload_bytes <= 0 or self.raw_upload_bytes <= 0:
            return 1.0
        return self.raw_upload_bytes / self.upload_bytes


@dataclass
class RunResult:
    """Complete record of one federated continual-learning run."""

    method: str
    dataset: str
    num_clients: int
    num_tasks: int
    # accuracy_matrix[m, k] = mean accuracy on task k after learning m+1 tasks
    accuracy_matrix: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    rounds: list[RoundRecord] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Participation policy spec the run executed under (``"full"``,
    #: ``"sampled:0.5"``, ``"deadline:30"``, ...).
    participation: str = "full"
    #: Transport spec the run executed under (``"v1:dense"``,
    #: ``"v2:delta:0.1"``, ``"v2+fp16:sparse:0.05"``, ...).
    transport: str = "v1:dense"
    #: Scenario spec the run's data was built from (``"class-inc"``,
    #: ``"domain-inc:drift=0.3"``, ``"blurry:overlap=0.2"``, ...).
    scenario: str = "class-inc"
    #: Signature-knowledge selector spec the run executed under
    #: (``"magnitude"``, ``"fisher"``, ``"hybrid:0.5"``, ...); methods that
    #: extract no signature knowledge record the ``"magnitude"`` default.
    selector: str = "magnitude"

    # ------------------------------------------------------------------
    # accuracy metrics
    # ------------------------------------------------------------------
    @property
    def accuracy_curve(self) -> np.ndarray:
        """Average accuracy over learned tasks, after each task stage."""
        m = self.accuracy_matrix.shape[0]
        return np.array(
            [self.accuracy_matrix[stage, : stage + 1].mean() for stage in range(m)]
        )

    @property
    def final_accuracy(self) -> float:
        curve = self.accuracy_curve
        return float(curve[-1]) if len(curve) else float("nan")

    def forgetting_rate(self, stage: int) -> float:
        """Mean forgetting over tasks learned strictly before ``stage``."""
        if stage <= 0:
            return 0.0
        rates = []
        for k in range(stage):
            acc_then = self.accuracy_matrix[k, k]
            acc_now = self.accuracy_matrix[stage, k]
            if acc_then > 0:
                rates.append(np.clip((acc_then - acc_now) / acc_then, 0.0, 1.0))
        return float(np.mean(rates)) if rates else 0.0

    @property
    def forgetting_curve(self) -> np.ndarray:
        m = self.accuracy_matrix.shape[0]
        return np.array([self.forgetting_rate(stage) for stage in range(m)])

    # ------------------------------------------------------------------
    # communication / time metrics
    # ------------------------------------------------------------------
    @property
    def total_upload_bytes(self) -> int:
        return int(sum(r.upload_bytes for r in self.rounds))

    @property
    def total_raw_upload_bytes(self) -> int:
        """Upload volume the run would have cost as dense v1."""
        return int(sum(r.raw_upload_bytes for r in self.rounds))

    @property
    def upload_compression(self) -> float:
        """Run-level compressed-vs-raw upload ratio (1.0 = no compression)."""
        total = self.total_upload_bytes
        if total <= 0 or self.total_raw_upload_bytes <= 0:
            return 1.0
        return self.total_raw_upload_bytes / total

    @property
    def total_download_bytes(self) -> int:
        return int(sum(r.download_bytes for r in self.rounds))

    @property
    def total_comm_bytes(self) -> int:
        return self.total_upload_bytes + self.total_download_bytes

    @property
    def sim_train_seconds(self) -> float:
        return float(sum(r.sim_train_seconds for r in self.rounds))

    @property
    def sim_comm_seconds(self) -> float:
        return float(sum(r.sim_comm_seconds for r in self.rounds))

    @property
    def sim_total_seconds(self) -> float:
        return self.sim_train_seconds + self.sim_comm_seconds

    def time_curve(self) -> np.ndarray:
        """Cumulative simulated time (hours) at the end of each task stage."""
        per_stage: dict[int, float] = {}
        for record in self.rounds:
            per_stage.setdefault(record.position, 0.0)
            per_stage[record.position] += (
                record.sim_train_seconds + record.sim_comm_seconds
            )
        stages = sorted(per_stage)
        return np.cumsum([per_stage[s] for s in stages]) / 3600.0

    # ------------------------------------------------------------------
    # participation metrics
    # ------------------------------------------------------------------
    @property
    def total_planned_clients(self) -> int:
        return int(sum(r.planned_clients for r in self.rounds))

    @property
    def total_reported_clients(self) -> int:
        return int(sum(r.reported_clients for r in self.rounds))

    @property
    def total_stale_clients(self) -> int:
        return int(sum(r.stale_clients for r in self.rounds))

    @property
    def total_evicted_clients(self) -> int:
        """Straggler updates dropped for exceeding ``max_staleness``."""
        return int(sum(r.evicted for r in self.rounds))

    @property
    def total_lost_clients(self) -> int:
        """Planned clients dropped because their worker died mid-round."""
        return int(sum(r.lost for r in self.rounds))

    @property
    def skipped_rounds(self) -> int:
        """Rounds that aggregated nothing (no reports, nothing pending)."""
        return sum(1 for r in self.rounds if r.skipped)

    def summary(self) -> dict:
        """Compact dictionary used by the experiment reports."""
        return {
            "method": self.method,
            "dataset": self.dataset,
            "scenario": self.scenario,
            "participation": self.participation,
            "transport": self.transport,
            "selector": self.selector,
            "final_accuracy": round(self.final_accuracy, 4),
            "final_forgetting": round(float(self.forgetting_curve[-1]), 4)
            if self.accuracy_matrix.size
            else float("nan"),
            "comm_gb": round(self.total_comm_bytes / 1e9, 4),
            "upload_x": round(self.upload_compression, 3),
            "sim_hours": round(self.sim_total_seconds / 3600.0, 4),
        }


def accuracy_matrix_from_client_evals(evals: list[list[list[float]]]) -> np.ndarray:
    """Build the mean accuracy matrix from per-stage, per-client accuracy lists.

    ``evals[m][c]`` is the list of per-task accuracies of client ``c`` after
    stage ``m`` (length ``m + 1``).
    """
    stages = len(evals)
    matrix = np.full((stages, stages), np.nan)
    for stage, client_accs in enumerate(evals):
        stacked = np.array(client_accs)  # (clients, stage+1)
        if stacked.ndim != 2 or stacked.shape[1] != stage + 1:
            raise ValueError(
                f"stage {stage}: expected per-client lists of length {stage + 1}"
            )
        matrix[stage, : stage + 1] = stacked.mean(axis=0)
    return matrix
