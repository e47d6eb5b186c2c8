"""The long-lived federation service and its remote shard aggregator.

:class:`FederationServer` owns one training recipe (method, dataset spec,
preset scale), a listening :class:`~repro.serve.engine.SocketRoundEngine`
and the trainer built over it.  It stays up across rounds and worker
failures: workers connect (and reconnect) whenever they like, are admitted
at the next round boundary, and a worker that dies mid-round only loses its
own clients for that round — the participation policy replans with whoever
reports, and the round is recorded with its ``lost`` count.

:class:`RemoteShardedAggregator` extends the
:class:`~repro.federated.sharding.ShardedAggregator` merge tree across the
socket: a canonical merge segment whose updates were all produced this
round by one live worker is accumulated *on that worker* (over the dense
update states it retained from the train phase) and only the float64
partial sums cross the wire.  Everything else — stale straggler segments,
segments spanning workers, segments whose worker died — is computed
locally from the update states the server already holds.  The merge tree,
the weights and the fold order are exactly the base aggregator's, so the
result stays bit-identical to the unsharded server whatever mix of remote
and local partials a round ends up with.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data import create_scenario, get_spec
from ..data.scenario import ClientDataFactory
from ..experiments.config import get_preset
from ..federated.protocol import ClientUpdate
from ..federated.registry import create_trainer
from ..federated.server import MERGE_SEGMENTS, StreamingAccumulator, shard_slices
from ..federated.sharding import ShardedAggregator
from ..metrics.tracker import RoundRecord, RunResult
from ..obs import metrics as _obs_metrics
from .engine import SocketRoundEngine

__all__ = ["FederationServer", "RemoteShardedAggregator"]


class RemoteShardedAggregator(ShardedAggregator):
    """Shard aggregation whose segment partials come from remote workers."""

    def __init__(self, server, num_shards: int, socket_engine: SocketRoundEngine):
        super().__init__(server, num_shards, engine=None)
        self.socket_engine = socket_engine
        #: Segments served remotely in the most recent round.
        self.last_remote_segments = 0
        #: Reason -> segment count for the most recent round's demotions
        #: (segments folded locally instead of on a worker).
        self.last_demotions: dict[str, int] = {}

    def aggregate_updates(
        self,
        updates: Sequence[ClientUpdate],
        staleness_discount: float = 0.5,
    ) -> dict[str, np.ndarray]:
        updates = list(updates)
        if not updates:
            raise ValueError(
                "cannot aggregate an empty round: zero reported clients "
                "(the trainer records empty rounds as skipped instead)"
            )
        weights = [u.effective_weight(staleness_discount) for u in updates]
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("aggregation weights must sum to a positive value")
        segments = shard_slices(len(updates), min(len(updates), MERGE_SEGMENTS))
        groups = shard_slices(len(segments), min(self.num_shards, len(segments)))
        base = self.server.global_state
        engine = self.socket_engine

        # a segment is remote-eligible when every update in it is fresh and
        # was produced this round by the same live worker (which therefore
        # retained the dense states the partial sum needs); anything else
        # is demoted to local folding, classified by why
        per_link: dict = {}
        requested: set[int] = set()
        demoted: dict[str, int] = {}
        for seg_index, segment in enumerate(segments):
            links = set()
            reason = None
            for index in range(segment.start, segment.stop):
                update = updates[index]
                if update.staleness != 0:
                    reason = "stale"
                    break
                link = engine.origin_link(update.client_id)
                if link is None:
                    reason = "orphaned"
                    break
                links.add(link)
            if reason is None and len(links) > 1:
                reason = "split"
            if reason is not None:
                demoted[reason] = demoted.get(reason, 0) + 1
                continue
            requested.add(seg_index)
            per_link.setdefault(links.pop(), []).append((
                seg_index,
                [
                    (updates[index].client_id, weights[index] / total)
                    for index in range(segment.start, segment.stop)
                ],
            ))
        remote = engine.fetch_partials(per_link) if per_link else {}
        failed = len(requested) - len(remote)
        if failed:
            demoted["failed"] = demoted.get("failed", 0) + failed
        partials: list[StreamingAccumulator] = []
        for seg_index, segment in enumerate(segments):
            accumulator = remote.get(seg_index)
            if accumulator is None:
                accumulator = StreamingAccumulator(base=base)
                for index in range(segment.start, segment.stop):
                    accumulator.add(updates[index].state, weights[index] / total)
            partials.append(accumulator)
        self.last_remote_segments = len(remote)
        self.last_demotions = demoted
        _obs_metrics.METRICS.counter("serve.segments_remote").inc(len(remote))
        if demoted:
            for reason, count in demoted.items():
                _obs_metrics.METRICS.counter(
                    f"serve.segments_demoted_{reason}"
                ).inc(count)
            _obs_metrics.METRICS.warn(
                "serve.segments_demoted",
                f"{sum(demoted.values())} of {len(segments)} merge segments "
                f"demoted to local folding ({demoted})",
                amount=sum(demoted.values()),
                **demoted,
            )
        self.last_shard_counts = tuple(
            sum(seg.stop - seg.start for seg in segments[group])
            for group in groups
        )
        return self.server.install_aggregate(self.merge(partials))


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
        """Adopt the workers' authoritative client replicas parent-side."""
        self.trainer._sync_engine_clients()

    def close(self) -> None:
        self.trainer.close()

    def __enter__(self) -> "FederationServer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False
