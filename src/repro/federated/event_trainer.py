"""The full-fidelity end of event-driven serving: a trainer in virtual time.

:class:`EventDrivenTrainer` is a
:class:`~repro.federated.trainer.FederatedTrainer` whose client presence is
governed by the event queue of :mod:`repro.federated.simulation`.  Clients
join mid-sequence (their lazy :class:`~repro.data.scenario.TaskStream` makes
a late ``begin_task`` O(1) for independent scenario families), leave
mid-round (their in-flight upload is forfeited and pending straggler work
dropped, so a departure between scheduling and reporting can never deadlock
a round close), and the virtual clock advances to each round's close.

It lives apart from the simulator so that :class:`PopulationSimulator
<repro.federated.simulation.PopulationSimulator>`, which trains nothing,
never imports the trainer.

**Degenerate regression pin.**  Under the ``fixed`` population (everyone
arrives at ``t=0``, no churn) the event-driven trainer's presence filter
passes everything through, every round closes synchronously, and the
produced :class:`~repro.metrics.tracker.RoundRecord` stream is
bit-identical to :class:`FederatedTrainer`'s — pinned by
``tests/test_simulation.py`` across scenario families and participation
policies.
"""

from __future__ import annotations

import numpy as np

from ..edge.arrivals import PopulationModel, create_population
from ..metrics.tracker import RoundRecord
from .protocol import ClientUpdate, RoundOutcome, RoundPlan
from .simulation import Event, EventKind, EventQueue
from .trainer import FederatedTrainer


class EventDrivenTrainer(FederatedTrainer):
    """A :class:`FederatedTrainer` whose population lives in virtual time.

    Presence is governed by a :class:`~repro.edge.arrivals.PopulationModel`
    unrolled through the event queue: clients join mid-sequence (their
    ``begin_task`` rides the lazy task stream on arrival), leave mid-round
    (forfeiting in-flight uploads and pending straggler carry), and each
    round's close advances the virtual clock (``self.clock``) past the
    round's train/upload completion events.

    Round *content* — planning, training, collection, aggregation — is
    inherited unchanged, which is what makes the degenerate pin hold: under
    the ``fixed`` population every hook reduces to the synchronous
    behaviour and the ``RoundRecord`` stream is bit-identical to the base
    trainer's.  Rounds that open with nobody online are recorded as
    skipped, and the clock advances to the next scheduled event instead.
    """

    def __init__(
        self,
        *args,
        population: str | PopulationModel = "fixed",
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.population = create_population(population)
        self.schedule = self.population.schedule(
            len(self.clients), seed=self.config.seed
        )
        self.queue = EventQueue()
        self.clock = 0.0
        #: Virtual open time of every round, in order: the clock when the
        #: round was planned — the previous round's close plus its
        #: broadcast's slowest simulated downlink (see ``_after_broadcast``).
        self.round_opens: list[float] = []
        #: Virtual close time of every executed round, in order.
        self.round_closes: list[float] = []
        self.events_processed = 0
        self._present: set[int] = set()
        self._begun: set[int] = set()
        self._position: int | None = None
        #: client_id -> virtual completion time of its in-flight upload.
        self._upload_ends: dict[int, float] = {}
        #: Fresh uploads forfeited by a mid-round departure (per round).
        self._forfeited: set[int] = set()
        for index, client in enumerate(self.clients):
            self.queue.push(
                float(self.schedule.arrival[index]),
                EventKind.ARRIVAL,
                client=client.client_id,
            )

    # -- presence ------------------------------------------------------
    def active_clients(self):
        return [
            client
            for client in self.clients
            if client.client_id in self._present
            and client.client_id not in self._oom
        ]

    def _begin_client(self, client) -> None:
        if self._position is None or client.client_id in self._begun:
            return
        client.begin_task(self._position)
        self._begun.add(client.client_id)
        if not self._check_memory(client):
            self._oom.add(client.client_id)

    def _dispatch(self, event: Event) -> None:
        self.events_processed += 1
        cid = event.client
        if event.kind == EventKind.ARRIVAL:
            self._present.add(cid)
            index = self._client_index[cid]
            if self.schedule.has_churn:
                self.queue.push(
                    self.schedule.departure_after(index, event.time),
                    EventKind.DEPARTURE,
                    client=cid,
                )
            if cid not in self._oom:
                self._begin_client(self.clients[index])
        elif event.kind == EventKind.DEPARTURE:
            self._present.discard(cid)
            # an upload still in flight never reaches the server; pending
            # straggler carry is dropped so the round close cannot wait on
            # a client that no longer exists
            if self._upload_ends.get(cid, -np.inf) > event.time:
                self._forfeited.add(cid)
            self.policy.drop_pending(cid)
            index = self._client_index[cid]
            self.queue.push(
                self.schedule.return_after(index, event.time),
                EventKind.ARRIVAL,
                client=cid,
            )
        # TRAIN_COMPLETE / UPLOAD_COMPLETE / EVICTION are accounting marks:
        # round content was already computed by the inherited round body

    def _drain_until(self, until: float) -> None:
        """Dispatch every event scheduled at or before ``until``."""
        while self.queue:
            head = self.queue.peek()
            if head.time > until:
                break
            self._dispatch(self.queue.pop())

    def _advance_to_presence(self) -> None:
        """Advance the clock until somebody is online (or raise)."""
        while not self.active_clients():
            if not self.queue:
                raise RuntimeError(
                    "no client is online and no arrivals are scheduled; "
                    "the population never reaches the federation"
                )
            event = self.queue.pop()
            self.clock = max(self.clock, event.time)
            self._dispatch(event)
            self._drain_until(self.clock)

    # -- task-stage lifecycle ------------------------------------------
    def _begin_position(self, position: int):
        self._position = position
        self._begun = set()
        self._drain_until(self.clock)
        self._advance_to_presence()
        for client in list(self.active_clients()):
            self._begin_client(client)
        active = self.active_clients()
        if not active:
            raise RuntimeError(
                f"all online clients ran out of memory before task stage "
                f"{position}"
            )
        self.policy.begin_task(position)
        self.engine.begin_task(position)
        return active

    # -- round lifecycle -----------------------------------------------
    def _run_round(self, position: int, round_index: int) -> RoundRecord:
        self._drain_until(self.clock)
        if not self.active_clients():
            return self._skipped_round(position, round_index)
        return super()._run_round(position, round_index)

    def _skipped_round(self, position: int, round_index: int) -> RoundRecord:
        """Nobody is online: advance virtual time to the next event."""
        self.round_opens.append(self.clock)
        if self.queue:
            event = self.queue.pop()
            self.clock = max(self.clock, event.time)
            self._dispatch(event)
            self._drain_until(self.clock)
        self.round_closes.append(self.clock)
        record = RoundRecord(
            position=position,
            round_index=round_index,
            upload_bytes=0,
            download_bytes=0,
            sim_train_seconds=0.0,
            sim_comm_seconds=0.0,
            active_clients=0,
            mean_loss=float("nan"),
            planned_clients=0,
            reported_clients=0,
            skipped=True,
        )
        self._publish_round_metrics(record)
        return record

    def _after_broadcast(self, downloads, receiver_ids) -> None:
        """Advance virtual time by the broadcast's slowest downlink.

        The round's close (``_finalize_outcome``) already waited on the
        upload legs; the next round can only open once every receiver holds
        the new global state, so the clock moves by the slowest receiver's
        simulated ``download_seconds`` over its own :class:`NetworkLink`.
        Clients that were lost or departed mid-round never appear in
        ``downloads`` and cannot hold the next round open.
        """
        delay = 0.0
        for client_id, num_bytes in downloads.items():
            link = self._channel_for(
                self.clients[self._client_index[client_id]]
            ).link
            delay = max(delay, link.download_seconds(num_bytes))
        self.clock += delay

    def _finalize_outcome(
        self,
        plan: RoundPlan,
        fresh: list[ClientUpdate],
        outcome: RoundOutcome,
    ) -> RoundOutcome:
        opened = self.clock
        self.round_opens.append(opened)
        self._forfeited = set()
        self._upload_ends = {}
        for update in fresh:
            client = self.clients[self._client_index[update.client_id]]
            train_end = opened + self._train_seconds(
                client, update.compute_units
            )
            upload_end = opened + update.sim_seconds
            self._upload_ends[update.client_id] = upload_end
            self.queue.push(train_end, EventKind.TRAIN_COMPLETE,
                            client=update.client_id,
                            round_index=plan.round_index)
            self.queue.push(upload_end, EventKind.UPLOAD_COMPLETE,
                            client=update.client_id,
                            round_index=plan.round_index)
        if plan.deadline_seconds is not None:
            close = opened + plan.deadline_seconds
        else:
            # synchronous close: the round barrier waits for every upload
            close = max([opened] + list(self._upload_ends.values()))
        for cid in outcome.evicted:
            self.queue.push(close, EventKind.EVICTION, client=cid,
                            round_index=plan.round_index)
        self._drain_until(close)
        self.queue.push(close, EventKind.ROUND_CLOSE,
                        round_index=plan.round_index)
        self._dispatch(self.queue.pop())
        self.clock = close
        self.round_closes.append(close)
        self._upload_ends = {}
        if not self._forfeited and len(self._present) >= len(self.clients):
            return outcome  # nobody left mid-round: outcome stands as-is
        forfeited = self._forfeited
        gone = forfeited | {
            client.client_id
            for client in self.clients
            if client.client_id not in self._present
        }
        return RoundOutcome(
            plan=outcome.plan,
            updates=[
                update for update in outcome.updates
                if update.client_id not in forfeited
            ],
            reported=tuple(
                cid for cid in outcome.reported if cid not in forfeited
            ),
            stale=tuple(
                cid for cid in outcome.stale if cid not in forfeited
            ),
            evicted=outcome.evicted,
            receivers=tuple(
                cid for cid in outcome.receivers if cid not in gone
            ),
        )
