"""The long-lived federation service.

:class:`FederationServer` owns one training recipe (method, dataset spec,
preset scale), a listening :class:`~repro.serve.engine.SocketRoundEngine`
and the trainer built over it.  It stays up across rounds and worker
failures: workers connect (and reconnect) whenever they like, are admitted
at the next round boundary, and a worker that dies mid-round only loses its
own clients for that round — the participation policy replans with whoever
reports, and the round is recorded with its ``lost`` count.  Clients stay
on their workers across task boundaries, which run there too; a worker
that joins between tasks takes its share of the clients at the next
boundary.

Aggregation happens here, on the server: every RESULT frame already carries
each :class:`~repro.federated.protocol.ClientUpdate` with its full state,
so ``shards`` > 1 folds the round through the same in-process
:class:`~repro.federated.sharding.ShardedAggregator` the serial engine
uses, bit-identical to the unsharded server.
"""

from __future__ import annotations

import numpy as np

from ..data import create_scenario, get_spec
from ..data.scenario import ClientDataFactory
from ..experiments.config import get_preset
from ..federated.registry import create_trainer
from ..metrics.tracker import RoundRecord, RunResult
from .engine import SocketRoundEngine

__all__ = ["FederationServer"]


class FederationServer:
    """A long-lived socket federation service around one training recipe.

    Listens before any worker exists, admits ``repro worker`` connections
    at round boundaries, and keeps serving rounds across worker deaths and
    reconnects.  ``run`` drives the full task sequence; ``run_rounds``
    steps individual rounds (the reconnect tests and interactive serving
    use this), and ``sync_clients`` pulls the workers' authoritative client
    replicas back before out-of-band evaluation.
    """

    def __init__(
        self,
        method: str = "fedavg",
        dataset: str = "cifar100",
        preset: str = "bench",
        *,
        num_workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        clients: int | None = None,
        tasks: int | None = None,
        seed: int = 0,
        shards: int = 1,
        participation: str | None = None,
        transport: str | None = None,
        scenario: str = "class-inc",
    ):
        preset_obj = get_preset(preset) if isinstance(preset, str) else preset
        if clients is not None:
            preset_obj = preset_obj.updated(num_clients=clients)
        if tasks is not None:
            preset_obj = preset_obj.updated(num_tasks=tasks)
        spec = get_spec(dataset) if isinstance(dataset, str) else dataset
        scaled = preset_obj.apply_to_spec(spec)
        scenario_obj = create_scenario(scenario)
        benchmark = scenario_obj.build(
            scaled,
            num_clients=preset_obj.num_clients,
            rng=np.random.default_rng(seed),
        )
        self.num_workers = num_workers
        self.engine = SocketRoundEngine(
            max_workers=num_workers, spawn_workers=False, host=host, port=port
        )
        self.engine.listen()
        self.trainer = create_trainer(
            method,
            benchmark,
            preset_obj.train_config(seed=seed),
            model_seed=1000 + seed,
            rng=np.random.default_rng(seed + 1),
            engine=self.engine,
            participation=participation,
            transport=transport,
            shards=shards,
            data_factory=ClientDataFactory(
                scenario_obj, scaled, preset_obj.num_clients, seed
            ),
        )
        self._position: int | None = None
        self._round_index = 0

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` workers should connect to."""
        return self.engine.address

    def wait_for_workers(
        self, count: int | None = None, timeout: float = 60.0
    ) -> None:
        """Block until ``count`` (default: ``num_workers``) workers join."""
        self.engine.wait_for_workers(
            self.num_workers if count is None else count, timeout=timeout
        )

    def connected_workers(self) -> int:
        self.engine.poll_admissions()
        return len(self.engine._live())

    # ------------------------------------------------------------------
    def run(self, num_positions: int | None = None) -> RunResult:
        """Serve the full task sequence and return the run's metrics."""
        return self.trainer.run(num_positions)

    def run_rounds(
        self, num_rounds: int = 1, position: int = 0
    ) -> list[RoundRecord]:
        """Step ``num_rounds`` rounds of one task stage.

        Newly connected (or reconnected) workers are admitted at each
        round's dispatch; a stage is begun lazily the first time it is
        stepped.
        """
        if self._position != position:
            self.trainer._begin_position(position)
            self._position = position
            self._round_index = 0
        records = []
        for _ in range(num_rounds):
            records.append(
                self.trainer._run_round(position, self._round_index)
            )
            self._round_index += 1
        return records

    def sync_clients(self) -> None:
        """Adopt the workers' client replicas parent-side, with their task
        data (the replicas stay live on the workers too)."""
        self.trainer._sync_engine_clients()
        self.trainer._attach_client_data()

    def close(self) -> None:
        self.trainer.close()

    def __enter__(self) -> "FederationServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False
