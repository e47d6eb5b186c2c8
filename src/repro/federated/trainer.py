"""The federated continual-learning simulation loop.

Drives the task-stage / aggregation-round / local-iteration structure of
Section III-A: every scheduled client trains its current task for ``r``
rounds of ``v`` local iterations; each round ends with staleness-aware
FedAvg aggregation and global-state download.  The trainer also runs the
edge simulation — per-round simulated training time (device FLOP throughput
x measured compute units), per-round communication time (payload /
bandwidth), and device out-of-memory dropout — and assembles the
:class:`~repro.metrics.tracker.RunResult` that the experiment harness
reports.

The round lifecycle is expressed through typed messages and three pluggable
policies:

* a :class:`~repro.federated.participation.ParticipationPolicy` plans each
  round (who trains, under what reporting deadline — one global scalar or
  per-client deadlines drawn from each device's network link), sorts the
  resulting :class:`~repro.federated.protocol.ClientUpdate` messages into a
  :class:`~repro.federated.protocol.RoundOutcome` (fresh reports, straggler
  carry-overs aggregated late at a staleness-discounted weight), and names
  who downloads the new global state;
* a :class:`~repro.federated.engine.RoundEngine` schedules the per-client
  work of a phase: the serial engine preserves the reference execution
  order, the batched engine stacks a round's clients on one graph replay,
  and the socket engine runs them concurrently in worker processes, both
  with bit-identical results.  Phases are picklable callables that mutate
  their client and return only their result: every call that touches
  client state, ``begin_task`` and ``end_task`` with the stage's
  evaluation included.  The trainer reaches the engine only through the
  hooks ``RoundEngine`` declares, and keeps the replicas an engine hands
  back after each task's end phase as its checkpoint;
* a :class:`~repro.federated.transport.Transport` owns everything between
  ``prepare_upload`` and ``aggregate_updates``: per-client channels price
  every payload (wire v1/v2, dense/delta/sparse uploads, optional fp16),
  decode uploads against the link's shared base state, and convert bytes
  to simulated seconds through per-device asymmetric links.
  Protocol latency is charged **once per round-trip**: the upload leg
  carries it, the download leg rides the open connection.

The server alone aggregates: every round on every engine folds its updates
through :meth:`~repro.federated.server.FedAvgServer.aggregate_updates`.  A
round where nobody reports and no straggler work is pending leaves the
global model untouched and is recorded as **skipped** — empty rounds never
reach the server (which rejects them with a :class:`ValueError`).

The trainer is a context manager; it owns its engine and closes it on exit,
so a socket engine cannot leak its worker processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..edge.cluster import EdgeCluster, uniform_cluster
from ..edge.cost import ModelCostModel
from ..edge.device import JETSON_XAVIER_NX, DeviceProfile
from ..edge.network import NetworkModel
from ..metrics.tracker import RoundRecord, RunResult, accuracy_matrix_from_client_evals
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from ..utils.serialization import encoded_num_bytes
from .base import FederatedClient
from .config import TrainConfig
from .engine import RoundEngine, StateHandle, create_engine
from .participation import ParticipationPolicy, create_policy
from .protocol import ClientUpdate, RoundOutcome, RoundPlan
from .server import FedAvgServer
from .transport import Channel, Transport, create_transport

# Cached instrument handles (always-on; ``drain`` zeroes them in place).
_ROUNDS = _obs_metrics.METRICS.counter("round.rounds")
_ROUNDS_SKIPPED = _obs_metrics.METRICS.counter("round.skipped")
_CLIENTS_REPORTED = _obs_metrics.METRICS.counter("round.clients_reported")
_CLIENTS_STALE = _obs_metrics.METRICS.counter("round.clients_stale")
_CLIENTS_EVICTED = _obs_metrics.METRICS.counter("round.clients_evicted")
_CLIENTS_LOST = _obs_metrics.METRICS.counter("round.clients_lost")
_UPLOAD_BYTES = _obs_metrics.METRICS.counter("wire.upload_bytes")
_DOWNLOAD_BYTES = _obs_metrics.METRICS.counter("wire.download_bytes")


@dataclass
class RoundContext:
    """Picklable bundle of the per-round edge-simulation helpers.

    Everything a phase callable needs to price and time one client's round
    work, independent of the trainer instance — so phases can cross a
    process boundary without dragging the whole trainer (and every client)
    along.
    """

    config: TrainConfig
    transport: Transport
    cluster: EdgeCluster
    cost_model: ModelCostModel | None
    num_clients: int

    def device_for(self, client: FederatedClient) -> DeviceProfile:
        return self.cluster.device_for_client(client.client_id, self.num_clients)

    def channel_for(self, client: FederatedClient) -> Channel:
        return self.transport.channel_for(client.client_id, self.device_for(client))

    def train_seconds(self, client: FederatedClient, units: float) -> float:
        if self.cost_model is None:
            return 0.0
        device = self.device_for(client)
        flops = self.cost_model.train_flops(self.config.batch_size, units)
        return device.training_seconds(flops)

    def real_bytes(self, our_bytes: int) -> int:
        if self.cost_model is None:
            return our_bytes
        return self.cost_model.real_state_bytes(our_bytes)

    def real_sample_bytes(self, our_bytes: int) -> int:
        if self.cost_model is None:
            return our_bytes
        return self.cost_model.real_sample_store_bytes(our_bytes)


#: How many times a task-boundary phase is mapped over the clients whose
#: worker died under it before the trainer gives up.
LIFECYCLE_ATTEMPTS = 3


def _resume(client: FederatedClient, position: int) -> None:
    """Begin ``position`` on a replica re-shipped from the trainer's
    checkpoint (an earlier task's) after its worker died."""
    if client.position != position:
        client.begin_task(position)


class _BeginPhase:
    """One client's begin-task leg; returns ``extra_state_bytes()`` for the
    trainer's out-of-memory check."""

    task_boundary = True

    def __init__(self, position: int):
        self.position = position

    def __call__(self, client: FederatedClient) -> dict[str, int]:
        client.begin_task(self.position)
        return client.extra_state_bytes()


class _EndPhase:
    """One client's end-of-task leg: ``end_task`` (knowledge extraction) on
    a client still in ``active``, then its accuracy on every task up to
    ``position``, which it returns."""

    task_boundary = True

    def __init__(self, position: int, active: frozenset[int]):
        self.position = position
        self.active = active

    def __call__(self, client: FederatedClient) -> list[float]:
        if client.client_id in self.active:
            _resume(client, self.position)
            client.end_task()
            client.take_compute_units()
        return client.evaluate(self.position)


class _TrainPhase:
    """One client's local-training + upload leg of a round.

    Picklable (no closures): the socket engine ships it to its workers.
    Trains the client in place and returns its :class:`ClientUpdate`.
    """

    def __init__(self, ctx: RoundContext, position: int):
        self.ctx = ctx
        self.position = position

    def __call__(self, client: FederatedClient) -> ClientUpdate:
        _resume(client, self.position)
        # worker-side on the socket engine: the span parents under the
        # adopted round context and ships back with the phase result
        with _obs_trace.TRACER.span(
            "train_client", client=client.client_id
        ) as span:
            update = self._train(client)
            span.attrs["upload_bytes"] = update.upload_bytes
        return update

    def _train(self, client: FederatedClient) -> ClientUpdate:
        ctx = self.ctx
        stats = client.local_train(ctx.config.iterations_per_round)
        channel = ctx.channel_for(client)
        payload = client.prepare_upload(channel)
        extra = client.extra_upload_bytes()
        sample_bytes = ctx.real_sample_bytes(client.upload_sample_bytes())
        up = ctx.real_bytes(payload.num_bytes + extra) + sample_bytes
        update = client.build_update(
            stats, state=channel.decode(payload), upload_bytes=up
        )
        update.raw_upload_bytes = (
            ctx.real_bytes(payload.raw_num_bytes + extra) + sample_bytes
        )
        update.sim_seconds = ctx.train_seconds(
            client, update.compute_units
        ) + channel.upload_seconds(up)
        return update

    def prepare_batched(self, engine, clients) -> None:
        """Batched-engine hook: run every participant's local SGD as one
        stacked graph replay per chunk before the per-client packaging
        calls above (each then consumes its client's stashed stats)."""
        engine.train_clients(list(clients), self.ctx.config.iterations_per_round)


class _ReceivePhase:
    """One client's global-state download leg of a round.

    The broadcast state arrives through the engine's
    :class:`~repro.federated.engine.StateHandle` — in-process engines pass
    the dict straight through, socket workers decode a shared copy once per
    broadcast.  Returns ``(download_bytes, compute_units)``.
    """

    def __init__(
        self, ctx: RoundContext, handle: StateHandle, round_index: int,
        position: int,
    ):
        self.ctx = ctx
        self.handle = handle
        self.round_index = round_index
        self.position = position

    def __call__(self, client: FederatedClient) -> tuple[int, float]:
        _resume(client, self.position)
        state = self.handle.resolve()
        channel = self.ctx.channel_for(client)
        down = self.ctx.real_bytes(
            channel.download_num_bytes(state) + client.extra_download_bytes()
        )
        client.receive_global(state, self.round_index)
        return down, client.take_compute_units()


class FederatedTrainer:
    """Synchronous federated continual training over a client population."""

    def __init__(
        self,
        server: FedAvgServer,
        clients: list[FederatedClient],
        config: TrainConfig,
        cost_model: ModelCostModel | None = None,
        cluster: EdgeCluster | None = None,
        network: NetworkModel | None = None,
        dataset_name: str = "unknown",
        method_name: str | None = None,
        engine: str | RoundEngine = "serial",
        participation: str | ParticipationPolicy | None = None,
        transport: str | Transport | None = None,
        scenario: str = "class-inc",
        data_factory=None,
        selector: str = "magnitude",
    ):
        if not clients:
            raise ValueError("trainer needs at least one client")
        # before the engine exists, so forked workers inherit the policies;
        # imported here because the simulator imports this module and
        # builds no trainer (its peak RSS moved +0.3 MB with the import)
        from ..utils import runtime

        runtime.configure()
        self.server = server
        self.clients = clients
        self.config = config
        self.cost_model = cost_model
        self.cluster = cluster or uniform_cluster(JETSON_XAVIER_NX, len(clients))
        self.network = network or NetworkModel()
        self.transport = create_transport(transport, network=self.network)
        self.dataset_name = dataset_name
        self.method_name = method_name or clients[0].method_name
        self.scenario = scenario
        self.selector = selector
        self.engine = create_engine(engine)
        self.engine.bind(clients, data_factory)
        self.policy = create_policy(
            participation if participation is not None else config.participation,
            seed=config.seed,
        )
        #: Live shared-base handles (delta/sparse transports); retired once
        #: no channel references them any more.
        self._base_handles: list[StateHandle] = []
        self._ctx = RoundContext(
            config=config,
            transport=self.transport,
            cluster=self.cluster,
            cost_model=cost_model,
            num_clients=len(clients),
        )
        self._client_index = {
            client.client_id: index for index, client in enumerate(clients)
        }
        #: Task data, reattached to checkpoint replicas that came without.
        self._client_data = {
            client.client_id: client.data for client in clients
        }
        self._oom: set[int] = set()

    # ------------------------------------------------------------------
    # resource ownership
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the round engine's execution resources (idempotent)."""
        for handle in self._base_handles:
            handle.release()
        self._base_handles = []
        self.engine.close()

    def _retire_base_handles(self) -> None:
        """Release shared base snapshots no channel references any more.

        Only the receivers of a broadcast adopt the new base handle; a
        non-participating client's channel may keep pointing at an older
        one, whose backing file must outlive it.  Identity against the
        live channels decides when a handle's file can go.
        """
        live = {
            id(channel._base)
            for channel in self.transport._channels.values()
        }
        keep = []
        for handle in self._base_handles:
            if id(handle) in live:
                keep.append(handle)
            else:
                handle.release()
        self._base_handles = keep

    def __enter__(self) -> "FederatedTrainer":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # edge simulation helpers (delegated to the picklable round context)
    # ------------------------------------------------------------------
    def _device_for(self, client: FederatedClient) -> DeviceProfile:
        return self._ctx.device_for(client)

    def _channel_for(self, client: FederatedClient) -> Channel:
        return self._ctx.channel_for(client)

    def _check_memory(
        self, client: FederatedClient, extra: dict[str, int]
    ) -> bool:
        """True if the client's device can hold its training state
        (``extra``: its ``extra_state_bytes()`` from the begin phase)."""
        if self.cost_model is None:
            return True
        device = self._device_for(client)
        required = (
            self.cost_model.training_memory_bytes(self.config.batch_size)
            + self.cost_model.real_state_bytes(extra.get("model", 0))
            + self.cost_model.real_sample_store_bytes(extra.get("samples", 0))
        )
        return required <= device.memory_bytes

    def _train_seconds(self, client: FederatedClient, units: float) -> float:
        return self._ctx.train_seconds(client, units)

    def _comm_seconds(self, up_bytes: int, down_bytes: int) -> float:
        """Round-trip time on the reference link; latency charged once."""
        return self.transport.reference_link.round_trip_seconds(
            up_bytes, down_bytes
        )

    def _real_bytes(self, our_bytes: int) -> int:
        return self._ctx.real_bytes(our_bytes)

    def _real_sample_bytes(self, our_bytes: int) -> int:
        return self._ctx.real_sample_bytes(our_bytes)

    # ------------------------------------------------------------------
    # per-client deadlines (deadline:auto)
    # ------------------------------------------------------------------
    def _maybe_bind_auto_deadlines(self, active: list[FederatedClient]) -> None:
        """Derive per-client deadlines from each client's network link.

        ``deadline:auto`` gives client ``i`` ``slack x`` the time its own
        link needs to upload one dense model payload, so heterogeneous
        links (the Raspberry Pi's 0.5x uplink) get proportionally more
        time.  Bound once, lazily, at the first planned round — after
        ``begin_task`` so every method can produce an upload state.
        """
        policy = self.policy
        if not getattr(policy, "auto", False) or policy.has_client_deadlines:
            return
        payload_bytes = self._real_bytes(
            encoded_num_bytes(active[0].upload_state())
        )
        policy.bind_client_deadlines(
            {
                client.client_id: policy.slack
                * self._channel_for(client).link.upload_seconds(payload_bytes)
                for client in self.clients
            }
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def active_clients(self) -> list[FederatedClient]:
        return [c for c in self.clients if c.client_id not in self._oom]

    @staticmethod
    def _resolve_download_accounting(
        outcome: RoundOutcome,
        downloads: dict[int, int],
        receiver_ids: set[int],
    ) -> None:
        """Set every aggregated update's download accounting explicitly.

        Receivers get their measured bytes; clients that did not download
        this round are pinned to 0.  A receiver whose download was never
        measured keeps the unset (-1) sentinel and trips the guard — no
        update may leave the round silently undercounting Fig. 5/6.
        """
        for update in outcome.updates:
            if update.client_id in downloads:
                update.download_bytes = downloads[update.client_id]
            elif update.client_id not in receiver_ids:
                update.download_bytes = 0
        unset = [u.client_id for u in outcome.updates if u.download_bytes < 0]
        if unset:
            raise RuntimeError(
                f"updates left round with unset download accounting: {unset}"
            )

    def _run_round(self, position: int, round_index: int) -> RoundRecord:
        """Execute one aggregation round under the participation policy."""
        with _obs_trace.TRACER.span(
            "round", position=position, round=round_index
        ) as span:
            record = self._execute_round(position, round_index)
            span.attrs.update(
                reported=record.reported_clients,
                stale=record.stale_clients,
                evicted=record.evicted,
                lost=record.lost,
                upload_bytes=record.upload_bytes,
                download_bytes=record.download_bytes,
            )
        self._publish_round_metrics(record)
        return record

    def _publish_round_metrics(self, record: RoundRecord) -> None:
        """Fold one round's accounting into the always-on registry."""
        _ROUNDS.inc()
        if record.skipped:
            _ROUNDS_SKIPPED.inc()
        _CLIENTS_REPORTED.inc(record.reported_clients)
        if record.stale_clients:
            _CLIENTS_STALE.inc(record.stale_clients)
        if record.evicted:
            _CLIENTS_EVICTED.inc(record.evicted)
        if record.lost:
            _CLIENTS_LOST.inc(record.lost)
        _UPLOAD_BYTES.inc(record.upload_bytes)
        _DOWNLOAD_BYTES.inc(record.download_bytes)

    def _execute_round(self, position: int, round_index: int) -> RoundRecord:
        active = self.active_clients()
        by_id = {client.client_id: client for client in active}
        active_ids = [client.client_id for client in active]
        self._maybe_bind_auto_deadlines(active)
        plan = self.policy.plan_round(position, round_index, active_ids)
        participants = [by_id[cid] for cid in plan.participants if cid in by_id]

        mapped = self.engine.map(
            _TrainPhase(self._ctx, position), participants
        )
        fresh: list[ClientUpdate] = []
        lost: set[int] = set()
        # synchronous barrier: the round waits for its slowest trainer, but a
        # reporting deadline caps that wait (stragglers finish off-round)
        train_seconds = 0.0
        for client, update in zip(participants, mapped):
            if update is None:
                # a worker died mid-phase: the client's round work is gone;
                # the policy replans the round with whoever did report
                lost.add(client.client_id)
                continue
            fresh.append(update)
            train_seconds = max(
                train_seconds, self._train_seconds(client, update.compute_units)
            )
        outcome = self.policy.collect(plan, fresh, active_ids)
        outcome = self._finalize_outcome(plan, fresh, outcome)

        if plan.deadline_seconds is not None:
            train_seconds = min(train_seconds, plan.deadline_seconds)

        skipped = False
        if outcome.updates:
            with _obs_trace.TRACER.span(
                "aggregate", updates=len(outcome.updates)
            ):
                global_state = self.server.aggregate_updates(
                    outcome.updates,
                    staleness_discount=self.policy.staleness_discount,
                )
        else:
            # nobody reported in time and nothing was pending: the global
            # model is unchanged this round — the round is recorded as
            # skipped rather than fed to the aggregator (which would raise)
            skipped = True
            global_state = self.server.global_state

        up_total = sum(update.upload_bytes for update in outcome.updates)
        raw_up_total = sum(
            update.raw_upload_bytes if update.raw_upload_bytes >= 0
            else update.upload_bytes
            for update in outcome.updates
        )
        down_total = 0
        downloads: dict[int, int] = {}
        receivers = [by_id[cid] for cid in outcome.receivers if cid in by_id]
        if global_state is not None and receivers:
            with _obs_trace.TRACER.span(
                "broadcast", receivers=len(receivers)
            ):
                handle = self.engine.share_state(global_state)
                try:
                    received = self.engine.map(
                        _ReceivePhase(
                            self._ctx, handle, round_index, position
                        ),
                        receivers,
                    )
                finally:
                    handle.release()
            # one shared base snapshot per broadcast, instead of one copy
            # per receiving client; channel bookkeeping stays parent-side so
            # channel warmup/base state survives out-of-process rounds.
            # The engine wraps the snapshot in its broadcast handle: a
            # pickled channel then ships a file token instead of the dense
            # base, and socket workers decode it once per broadcast.
            shared_base = self.transport.broadcast_base(global_state)
            if shared_base is not None:
                shared_base = self.engine.share_state(shared_base)
                self._base_handles.append(shared_base)
            for client, result in zip(receivers, received):
                if result is None:
                    # lost mid-download: the client never received the
                    # state, so its channel is not delivered to either
                    lost.add(client.client_id)
                    continue
                down, units = result
                self._channel_for(client).deliver(global_state, base=shared_base)
                down_total += down
                downloads[client.client_id] = down
                train_seconds = max(
                    train_seconds, self._train_seconds(client, units)
                )
            if self._base_handles:
                self._retire_base_handles()
        self._resolve_download_accounting(
            outcome, downloads, set(outcome.receivers) - lost
        )
        self._after_broadcast(downloads, outcome.receivers)

        per_client_up = up_total / max(len(outcome.updates), 1)
        per_client_down = down_total / max(len(receivers), 1)
        losses = [update.mean_loss for update in fresh]
        if losses and not all(np.isnan(loss) for loss in losses):
            mean_loss = float(np.nanmean(losses))
        else:
            # an empty round (or one whose clients report no loss) records
            # NaN explicitly rather than through np.nanmean's RuntimeWarning
            mean_loss = float("nan")
        return RoundRecord(
            position=position,
            round_index=round_index,
            upload_bytes=up_total,
            download_bytes=down_total,
            sim_train_seconds=train_seconds,
            sim_comm_seconds=self._comm_seconds(per_client_up, per_client_down),
            active_clients=len(active),
            mean_loss=mean_loss,
            planned_clients=len(plan.participants),
            reported_clients=len(outcome.reported),
            stale_clients=len(outcome.stale),
            raw_upload_bytes=raw_up_total,
            evicted=len(outcome.evicted),
            skipped=skipped,
            lost=len(lost),
        )

    def _after_broadcast(
        self, downloads: dict[int, int], receiver_ids
    ) -> None:
        """Hook after the round's broadcast/download leg completes.

        The synchronous trainer does nothing; the event-driven trainer
        advances virtual time by the broadcast's slowest simulated
        downlink, so the next round opens only once every receiver holds
        the new global state.
        """

    def _finalize_outcome(
        self,
        plan: "RoundPlan",
        fresh: list[ClientUpdate],
        outcome: RoundOutcome,
    ) -> RoundOutcome:
        """Hook between the policy's verdict and aggregation.

        The synchronous trainer passes the outcome through untouched; the
        event-driven trainer overrides this to advance virtual time over the
        round's events and to drop updates/receivers belonging to clients
        that departed mid-round.
        """
        return outcome

    def _map_lifecycle(self, phase, clients: list[FederatedClient]) -> list:
        """Map a task-boundary phase, which unlike a round loses no client:
        a dead worker's clients re-ship from the checkpoint and run it
        again."""
        results: list = [None] * len(clients)
        pending = list(range(len(clients)))
        for _ in range(LIFECYCLE_ATTEMPTS):
            mapped = self.engine.map(phase, [clients[i] for i in pending])
            for index, result in zip(pending, mapped):
                results[index] = result
            pending = [i for i in pending if results[i] is None]
            if not pending:
                return results
        raise RuntimeError(
            f"{type(phase).__name__} lost clients to dead workers "
            f"{LIFECYCLE_ATTEMPTS} times"
        )

    def _begin_clients(
        self, position: int, clients: list[FederatedClient]
    ) -> None:
        """Begin ``clients``; those whose device cannot hold the method's
        state any more (e.g. FedWEIT on the 2 GB Raspberry Pi) leave the
        federation permanently, as in Section V-B."""
        extras = self._map_lifecycle(_BeginPhase(position), clients)
        for client, extra in zip(clients, extras):
            if not self._check_memory(client, extra):
                self._oom.add(client.client_id)

    def _begin_position(self, position: int) -> list[FederatedClient]:
        """Advance every active client to task ``position``; returns them."""
        self.engine.begin_task(position)
        self._begin_clients(position, self.active_clients())
        active = self.active_clients()
        if not active:
            raise RuntimeError(
                f"all clients ran out of memory before task stage {position}"
            )
        self.policy.begin_task(position)
        return active

    def _end_position(self, position: int) -> list[list[float]]:
        """Close task ``position``: the end phase on every client, then the
        checkpoint.  Returns each client's accuracies, in client order."""
        active = frozenset(c.client_id for c in self.active_clients())
        evals = self._map_lifecycle(_EndPhase(position, active), self.clients)
        self._sync_engine_clients()
        return evals

    def _sync_engine_clients(self) -> None:
        """Adopt the engine's client replicas as the checkpoint.

        Sticky-affinity engines (:class:`~repro.serve.engine.SocketRoundEngine`)
        keep the live replicas on their workers across tasks.  A client
        re-ships from its checkpoint when its worker dies; nothing else runs
        on it, and it gets no task data until the run returns.  In-process
        engines collect nothing.
        """
        for client in self.engine.collect_clients():
            index = self._client_index.get(client.client_id)
            if index is not None:
                self.clients[index] = client

    def _attach_client_data(self) -> None:
        """Give collected replicas their task data back, before the
        trainer hands its clients to a caller."""
        for client in self.clients:
            if client.data is None:
                client.attach_data(self._client_data[client.client_id])

    def run_task(
        self, position: int, num_rounds: int | None = None
    ) -> list[RoundRecord]:
        """Run one task stage's aggregation rounds, without the end-of-stage
        evaluation or knowledge extraction.

        The round-throughput benchmarks (``fig-scaling``) time exactly this:
        ``begin_task`` on every active client, then ``num_rounds`` rounds
        (default: the config's ``rounds_per_task``).
        """
        self._begin_position(position)
        if num_rounds is None:
            num_rounds = self.config.rounds_per_task
        records = [
            self._run_round(position, round_index)
            for round_index in range(num_rounds)
        ]
        self._sync_engine_clients()
        self._attach_client_data()
        return records

    def run(self, num_positions: int | None = None) -> RunResult:
        """Run the full task sequence; returns the collected metrics.

        Task data arrives through each client's task stream:
        ``begin_task`` materializes the stage's :class:`ClientTask` on
        first access, so lazily built scenario benchmarks only synthesize
        the arrays a stage actually reaches.
        """
        started = time.time()
        num_positions = num_positions or self.clients[0].data.num_tasks
        rounds: list[RoundRecord] = []
        stage_evals: list[list[list[float]]] = []

        for position in range(num_positions):
            self._begin_position(position)
            for round_index in range(self.config.rounds_per_task):
                rounds.append(self._run_round(position, round_index))
            stage_evals.append(self._end_position(position))
        self._attach_client_data()

        matrix = accuracy_matrix_from_client_evals(stage_evals)
        return RunResult(
            method=self.method_name,
            dataset=self.dataset_name,
            num_clients=len(self.clients),
            num_tasks=num_positions,
            accuracy_matrix=matrix,
            rounds=rounds,
            wall_seconds=time.time() - started,
            participation=self.policy.describe(),
            transport=self.transport.describe(),
            scenario=self.scenario,
            selector=self.selector,
        )
