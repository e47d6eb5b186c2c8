"""Event-driven population serving: federated rounds over virtual time.

Everything before this module runs in *round time*: the trainer executes
round ``k``, then round ``k + 1``, and "when" something happens is implied
by the index.  Deployment-scale serving is not like that — clients arrive
in bursts, drop mid-sequence, and report late over heterogeneous links —
so this module decouples wall-clock from round index with a deterministic
discrete-event simulator:

* :class:`EventQueue` — the event loop's priority queue over virtual time:
  a binary heap of single events plus **sorted runs**, blocks of same-kind
  events known all at once (a round's upload completions, a wave of
  departures) kept as numpy arrays.  One rule orders both: ``(time, seq)``,
  where ``seq`` is the push counter and a run reserves its seqs as one
  block, so every simulation is exactly reproducible and no tie depends on
  which store an event sits in.  Events (:class:`Event`) are client arrivals and
  departures, upload completions, shard-local staleness cut-offs, round
  closes, and evictions.
* :class:`AsyncRoundLoop` — a long-lived server loop over a *lightweight*
  population (per-client numpy state, no real models): rounds overlap in
  the sense that stragglers' uploads from earlier rounds are still in
  flight while later rounds run; each aggregation shard stops accepting a
  round's uploads at its own ``deadline:auto``-style cut-off (the max of
  its members' per-client deadlines); an upload arriving ``s`` shard-round
  closes late is aggregated at staleness ``s`` — or **evicted** when
  ``s > max_staleness``.  Each round's uploads enter the queue as one run,
  and the end of each client's training leg is counted as an event but
  never queued, since nothing happens when it passes.  This is what scales
  to the 10^5–10^6-client regime of ``fig-scaling``.
* :class:`PopulationSimulator` — the user-facing facade: builds the
  population schedule (:mod:`repro.edge.arrivals`), derives per-client
  train/upload durations from each device's
  :class:`~repro.edge.network.NetworkLink` and FLOP throughput, runs the
  loop, and reports throughput, staleness histograms, and evictions.
* :class:`EventDrivenTrainer` — the *full-fidelity* end: a
  :class:`~repro.federated.trainer.FederatedTrainer` whose client presence
  is governed by the same event queue.  Clients join mid-sequence (their
  lazy :class:`~repro.data.scenario.TaskStream` makes a late ``begin_task``
  O(1) for independent scenario families), leave mid-round (their in-flight
  upload is forfeited and pending straggler work dropped, so a departure
  between scheduling and reporting can never deadlock a round close), and
  the virtual clock advances to each round's close.

**Degenerate regression pin.**  Under the ``fixed`` population (everyone
arrives at ``t=0``, no churn) the event-driven trainer's presence filter
passes everything through, every round closes synchronously, and the
produced :class:`~repro.metrics.tracker.RoundRecord` stream is
bit-identical to :class:`FederatedTrainer`'s — pinned by
``tests/test_simulation.py`` across scenario families and participation
policies.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import repeat
from typing import NamedTuple

import numpy as np

from ..edge.arrivals import PopulationModel, PopulationSchedule, create_population
from ..edge.cluster import EdgeCluster, jetson_raspberry_cluster
from ..edge.network import NetworkModel
from ..metrics.tracker import RoundRecord
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from .protocol import ClientUpdate, RoundOutcome, RoundPlan
from .server import shard_slices
from .trainer import FederatedTrainer


class EventKind(IntEnum):
    """The event vocabulary of the virtual-time loop."""

    ARRIVAL = 0
    DEPARTURE = 1
    TRAIN_COMPLETE = 2
    UPLOAD_COMPLETE = 3
    SHARD_CLOSE = 4
    ROUND_CLOSE = 5
    EVICTION = 6


class Event(NamedTuple):
    """One scheduled occurrence in virtual time.

    Ordering is ``(time, seq)``: ``seq`` is the queue's monotone push
    counter, so simultaneous events dispatch in the order they were
    scheduled — deterministically, with no float tie ambiguity.
    """

    time: float
    seq: int
    kind: int
    client: int = -1
    round_index: int = -1
    generation: int = -1


#: A run keeps its events as numpy arrays and builds this many
#: :class:`Event` objects at a time, so a long run never holds them all.
_RUN_SLICE = 4096


def _run_events(times, seqs, kind, clients, round_index, generations):
    """Yield a sorted run's :class:`Event`\\ s, ``_RUN_SLICE`` at a time."""
    for start in range(0, len(times), _RUN_SLICE):
        part = slice(start, start + _RUN_SLICE)
        # tuple.__new__ on zipped rows builds each Event without a Python
        # frame per event
        yield from map(tuple.__new__, repeat(Event), zip(
            times[part].tolist(), seqs[part].tolist(), repeat(kind),
            clients[part].tolist(), repeat(round_index),
            repeat(-1) if generations is None else generations[part].tolist(),
        ))


class EventQueue:
    """A deterministic priority queue of :class:`Event`\\ s over virtual time.

    Single events (:meth:`push`) sit on a binary heap.  A *run*
    (:meth:`push_run`) is a block of same-kind events queued at once: it
    reserves the next seqs as one block, in the order given, and is sorted
    by ``(time, seq)`` once, on arrival.  :meth:`pop` and :meth:`peek`
    merge the heap with the runs by that same ``(time, seq)`` rule through
    one cursor per live run, so an event dispatches at the same point
    whichever store holds it.  Times must not be NaN: ``(time, seq)`` is
    then a total order.
    """

    def __init__(self):
        self._heap: list[Event] = []
        #: Min-heap of ``[head event, rest of the run]`` cursors.
        self._runs: list[list] = []
        self._seq = 0
        self._size = 0
        #: Total events ever pushed (the loop's work measure).
        self.pushed = 0

    def push(
        self,
        time: float,
        kind: int,
        client: int = -1,
        round_index: int = -1,
        generation: int = -1,
    ) -> Event:
        event = Event(time, self._seq, int(kind), client, round_index, generation)
        self._seq += 1
        self.pushed += 1
        self._size += 1
        heapq.heappush(self._heap, event)
        return event

    def push_run(
        self,
        times: np.ndarray,
        kind: int,
        clients: np.ndarray,
        round_index: int = -1,
        generations: np.ndarray | None = None,
    ) -> None:
        """Queue one ``kind`` event per entry of ``times`` as a sorted run.

        Entry ``i`` gets the seq that the ``i``-th of ``len(times)`` single
        pushes would have had, so the run pops exactly where those pushes
        would have.
        """
        count = len(times)
        if not count:
            return
        # a stable sort by time is a sort by (time, seq)
        order = np.argsort(times, kind="stable")
        events = _run_events(
            times[order], self._seq + order, int(kind), clients[order],
            round_index, None if generations is None else generations[order],
        )
        self._seq += count
        self.pushed += count
        self._size += count
        heapq.heappush(self._runs, [next(events), events])

    def pop(self) -> Event:
        runs, heap = self._runs, self._heap
        if runs and (not heap or runs[0][0] < heap[0]):
            cursor = runs[0]
            event = cursor[0]
            following = next(cursor[1], None)
            if following is None:
                heapq.heappop(runs)
            else:
                cursor[0] = following
                heapq.heapreplace(runs, cursor)
        else:
            event = heapq.heappop(heap)
        self._size -= 1
        return event

    def peek(self) -> Event | None:
        runs, heap = self._runs, self._heap
        if runs and (not heap or runs[0][0] < heap[0]):
            return runs[0][0]
        return heap[0] if heap else None

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0


# ----------------------------------------------------------------------
# lightweight population loop (10^5 – 10^6 clients)
# ----------------------------------------------------------------------

#: ``spawn_key`` purpose of the per-round training-time jitter stream.
_JITTER = 10


@dataclass
class SimRound:
    """Accounting for one simulated aggregation round."""

    round_index: int
    open_seconds: float
    active: int = 0
    planned: int = 0
    reported: int = 0
    stale: int = 0
    evicted: int = 0
    #: In-flight uploads abandoned because their client departed.
    lost: int = 0
    close_seconds: float = 0.0
    skipped: bool = False


@dataclass
class SimReport:
    """What a :class:`PopulationSimulator` run measured."""

    num_clients: int
    population: str
    shards: int
    max_staleness: int
    rounds: list[SimRound] = field(default_factory=list)
    #: staleness -> number of aggregated uploads at that staleness
    #: (0 = fresh; evictions are *not* in here, they never aggregate).
    staleness_hist: dict[int, int] = field(default_factory=dict)
    events: int = 0
    peak_present: int = 0
    peak_inflight: int = 0
    wall_seconds: float = 0.0

    @property
    def virtual_seconds(self) -> float:
        return self.rounds[-1].close_seconds if self.rounds else 0.0

    @property
    def scheduled(self) -> int:
        """Client round-slots scheduled across the run."""
        return sum(r.planned for r in self.rounds)

    @property
    def evicted(self) -> int:
        return sum(r.evicted for r in self.rounds)

    @property
    def lost(self) -> int:
        return sum(r.lost for r in self.rounds)

    @property
    def rounds_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return len(self.rounds) / self.wall_seconds

    @property
    def clients_per_second(self) -> float:
        """Scheduling throughput: client round-slots per wall second."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.scheduled / self.wall_seconds

    def histogram_label(self) -> str:
        """Compact ``s:count`` rendering of the staleness histogram."""
        parts = [f"{s}:{self.staleness_hist[s]}" for s in sorted(self.staleness_hist)]
        if self.evicted:
            parts.append(f"evict:{self.evicted}")
        return " ".join(parts) if parts else "-"

    def __str__(self) -> str:
        return (
            f"eventsim: {self.num_clients} clients ({self.population}), "
            f"{len(self.rounds)} rounds in {self.virtual_seconds:.1f} virtual s "
            f"/ {self.wall_seconds:.2f} wall s "
            f"({self.clients_per_second:,.0f} clients/s, "
            f"{self.rounds_per_second:.2f} rounds/s); "
            f"staleness {self.histogram_label()}, lost {self.lost}, "
            f"peak present {self.peak_present}, "
            f"peak in-flight {self.peak_inflight}"
        )


class AsyncRoundLoop:
    """Overlapping rounds over a lightweight (arrays-only) population.

    The loop owns no models and no payloads — each client is three floats
    (base training seconds, upload seconds, reporting deadline) plus
    presence/busy/generation state — which is what lets it schedule
    10^5–10^6 clients in seconds.  Semantics:

    * round ``k + 1`` opens the moment round ``k`` closes, but stragglers'
      uploads stay in flight across closes (rounds overlap);
    * each of the ``shards`` contiguous id-blocks stops accepting a round's
      uploads at its **own** cut-off — ``open + max(member deadlines)``,
      the shard-local analogue of ``deadline:auto`` — so an upload's
      staleness is the number of *its shard's* closes that passed before it
      arrived;
    * an upload ``s > max_staleness`` shard-closes late triggers an
      :attr:`EventKind.EVICTION` event and never aggregates;
    * a departure while an upload is in flight invalidates it (generation
      tag), counting it as *lost* — the round close never waits for it.
    """

    def __init__(
        self,
        schedule: PopulationSchedule,
        train_seconds: np.ndarray,
        upload_seconds: np.ndarray,
        deadline_seconds: np.ndarray,
        shards: int = 1,
        max_staleness: int = 1,
        num_rounds: int = 10,
        seed: int = 0,
        jitter_sigma: float = 0.4,
    ):
        n = schedule.num_clients
        if not (len(train_seconds) == len(upload_seconds) == len(deadline_seconds) == n):
            raise ValueError("per-client arrays must match the schedule's size")
        if num_rounds < 1:
            raise ValueError(f"need at least one round, got {num_rounds}")
        if max_staleness < 1:
            raise ValueError(f"max_staleness must be >= 1, got {max_staleness}")
        self.schedule = schedule
        self.train_seconds = np.asarray(train_seconds, dtype=float)
        self.upload_seconds = np.asarray(upload_seconds, dtype=float)
        self.deadline_seconds = np.asarray(deadline_seconds, dtype=float)
        # an infinite deadline never closes a round (under churn the loop
        # then runs forever), and NaN or negative times break (time, seq)
        for name, values in (("train", self.train_seconds),
                             ("upload", self.upload_seconds)):
            if not (np.isfinite(values) & (values >= 0)).all():
                raise ValueError(f"{name} seconds must be finite and >= 0")
        if not (np.isfinite(self.deadline_seconds)
                & (self.deadline_seconds > 0)).all():
            raise ValueError("deadline seconds must be finite and positive")
        if not math.isfinite(jitter_sigma):
            raise ValueError(f"jitter_sigma must be finite, got {jitter_sigma}")
        self.num_rounds = num_rounds
        self.max_staleness = max_staleness
        self.seed = seed
        self.jitter_sigma = jitter_sigma
        slices = shard_slices(n, shards)
        self.shard_of = np.empty(n, dtype=np.int64)
        self.shard_deadline = np.empty(len(slices))
        for index, piece in enumerate(slices):
            self.shard_of[piece] = index
            self.shard_deadline[index] = self.deadline_seconds[piece].max()
        self.round_deadline = float(self.shard_deadline.max())

    def run(self, report: SimReport) -> SimReport:
        """Run ``num_rounds`` rounds, filling ``report`` in place."""
        schedule = self.schedule
        n = schedule.num_clients
        queue = EventQueue()
        present = np.zeros(n, dtype=bool)
        busy = np.zeros(n, dtype=bool)
        generation = np.zeros(n, dtype=np.int64)
        shard_round = [0] * len(self.shard_deadline)
        hist = report.staleness_hist
        present_count = inflight = 0
        # round k + 1 opens at round k's close, so every close is known now
        opens = [0.0]
        for _ in range(self.num_rounds):
            opens.append(opens[-1] + self.round_deadline)
        final_close = opens[-1]
        # first-wave arrivals are a sorted slice, not events: an arrival
        # only matters at the next round open (a running round never adopts
        # newcomers), so everyone arrived by then is folded in just before
        # scheduling.  Their first departures join the queue as one run.
        first_wave = np.argsort(schedule.arrival, kind="stable")
        first_times = schedule.arrival[first_wave]
        arrived = 0

        def inject_arrivals(now: float) -> int:
            nonlocal arrived, present_count
            stop = int(np.searchsorted(first_times, now, side="right"))
            wave = first_wave[arrived:stop]
            arrived = stop
            present[wave] = True
            present_count += len(wave)
            report.peak_present = max(report.peak_present, present_count)
            if schedule.has_churn:
                queue.push_run(
                    schedule.arrival[wave] + schedule.session[wave],
                    EventKind.DEPARTURE, wave,
                )
            return len(wave)

        def open_round(round_index: int) -> None:
            nonlocal events
            now = opens[round_index]
            events += inject_arrivals(now)
            ids = np.flatnonzero(present & ~busy)
            stats = SimRound(
                round_index=round_index, open_seconds=now,
                active=present_count, planned=len(ids),
            )
            report.rounds.append(stats)
            if len(ids):
                rng = np.random.default_rng(np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(_JITTER, round_index)
                ))
                # per-(round, client) lognormal slowdown on the whole round
                # (interference on the device AND contention on the link),
                # mean-corrected so the nominal durations stay the average
                jitter = np.exp(
                    self.jitter_sigma * rng.standard_normal(len(ids))
                    - 0.5 * self.jitter_sigma**2
                )
                # a training leg ends with nothing to do, so it is counted,
                # not queued: it would pop before the final close exactly
                # when it ends at or before it, since the final close is
                # queued after every training leg
                train_end = now + self.train_seconds[ids] * jitter
                events += int(np.count_nonzero(train_end <= final_close))
                upload_end = now + (
                    self.train_seconds[ids] + self.upload_seconds[ids]
                ) * jitter
                busy[ids] = True
                queue.push_run(upload_end, EventKind.UPLOAD_COMPLETE, ids,
                               round_index=round_index,
                               generations=generation[ids])
            for shard, cutoff in enumerate(self.shard_deadline):
                queue.push(now + cutoff, EventKind.SHARD_CLOSE,
                           client=shard, round_index=round_index)
            queue.push(opens[round_index + 1], EventKind.ROUND_CLOSE,
                       round_index=round_index)

        events = 0
        open_round(0)
        inflight = int(busy.sum())
        report.peak_inflight = max(report.peak_inflight, inflight)
        # the upload branch runs once per scheduled client: its lookups
        # are bound to locals
        pop, rounds = queue.pop, report.rounds
        shard_of, max_staleness = self.shard_of.tolist(), self.max_staleness
        upload_complete = EventKind.UPLOAD_COMPLETE
        while True:
            event = pop()
            events += 1
            kind = event.kind
            if kind == upload_complete:
                cid = event.client
                if event.generation != generation[cid]:
                    continue  # departed mid-flight; loss counted there
                busy[cid] = False
                inflight -= 1
                late = shard_round[shard_of[cid]] - event.round_index
                if late <= max_staleness:
                    hist[late] = hist.get(late, 0) + 1
                    if late == 0:
                        rounds[event.round_index].reported += 1
                    else:
                        rounds[-1].stale += 1
                else:
                    queue.push(event.time, EventKind.EVICTION,
                               client=cid, round_index=event.round_index)
            elif kind == EventKind.ARRIVAL:
                # a churned client returning online
                cid = event.client
                present[cid] = True
                present_count += 1
                report.peak_present = max(report.peak_present, present_count)
                if schedule.has_churn:
                    queue.push(schedule.departure_after(cid, event.time),
                               EventKind.DEPARTURE, client=cid)
            elif kind == EventKind.DEPARTURE:
                cid = event.client
                present[cid] = False
                present_count -= 1
                generation[cid] += 1
                if busy[cid]:
                    busy[cid] = False
                    inflight -= 1
                    rounds[-1].lost += 1
                queue.push(schedule.return_after(cid, event.time),
                           EventKind.ARRIVAL, client=cid)
            elif kind == EventKind.SHARD_CLOSE:
                shard_round[event.client] = event.round_index + 1
            elif kind == EventKind.EVICTION:
                rounds[-1].evicted += 1
            else:  # ROUND_CLOSE
                stats = rounds[event.round_index]
                stats.close_seconds = event.time
                stats.skipped = stats.reported == 0 and stats.stale == 0
                if event.round_index + 1 >= self.num_rounds:
                    break
                open_round(event.round_index + 1)
                inflight = int(busy.sum())
                report.peak_inflight = max(report.peak_inflight, inflight)
        report.events += events
        return report


class PopulationSimulator:
    """Million-client serving simulation with real device/link latencies.

    Builds the arrival/churn schedule from a population spec, derives each
    client's training and upload seconds from its device profile (FLOP
    throughput) and :class:`~repro.edge.network.NetworkLink` (asymmetric
    bandwidth + latency) for a nominal payload, and runs an
    :class:`AsyncRoundLoop` over them.  Per-client reporting deadlines
    follow ``deadline:auto``: ``slack x`` the client's own nominal round
    time, so "straggler" means *slower than your own hardware predicts*.
    """

    def __init__(
        self,
        num_clients: int,
        population: str | PopulationModel = "pareto:1.5",
        num_rounds: int = 10,
        shards: int = 8,
        max_staleness: int = 2,
        deadline: float | str = "auto",
        slack: float = 1.5,
        seed: int = 0,
        cluster: EdgeCluster | None = None,
        network: NetworkModel | None = None,
        payload_bytes: int = 1_000_000,
        train_flops: float = 2e9,
        jitter_sigma: float = 0.4,
    ):
        if num_clients < 1:
            raise ValueError(f"need at least one client, got {num_clients}")
        if not (math.isfinite(slack) and slack > 0):
            raise ValueError(f"slack must be finite and positive, got {slack}")
        self.num_clients = num_clients
        self.model = create_population(population)
        self.seed = seed
        cluster = cluster or jetson_raspberry_cluster()
        network = network or NetworkModel()
        num_devices = len(cluster.devices)
        device_train = np.array([
            device.training_seconds(train_flops) for device in cluster.devices
        ])
        device_upload = np.array([
            network.link_for_device(device).upload_seconds(payload_bytes)
            for device in cluster.devices
        ])
        if num_clients >= num_devices:
            placement = np.arange(num_clients) % num_devices
        else:
            placement = np.array([
                cluster.devices.index(cluster.device_for_client(i, num_clients))
                for i in range(num_clients)
            ])
        train_seconds = device_train[placement]
        upload_seconds = device_upload[placement]
        if deadline == "auto":
            deadline_seconds = slack * (train_seconds + upload_seconds)
        else:
            deadline = float(deadline)
            if not (math.isfinite(deadline) and deadline > 0):
                raise ValueError(
                    f"deadline must be finite and positive, got {deadline}"
                )
            deadline_seconds = np.full(num_clients, deadline)
        self.schedule = self.model.schedule(num_clients, seed=seed)
        self.loop = AsyncRoundLoop(
            self.schedule,
            train_seconds,
            upload_seconds,
            deadline_seconds,
            shards=shards,
            max_staleness=max_staleness,
            num_rounds=num_rounds,
            seed=seed,
            jitter_sigma=jitter_sigma,
        )

    def run(self) -> SimReport:
        report = SimReport(
            num_clients=self.num_clients,
            population=self.model.describe(),
            shards=len(self.loop.shard_deadline),
            max_staleness=self.loop.max_staleness,
        )
        # wall_seconds feeds the clients/s that `repro simulate` and
        # fig-eventsim print with tracing off, so it cannot come from a span
        started = time.perf_counter()
        with _obs_trace.TRACER.span(
            "simulate", clients=self.num_clients,
            population=report.population, rounds=self.loop.num_rounds,
        ) as span:
            self.loop.run(report)
            span.attrs.update(events=report.events,
                              evicted=report.evicted, lost=report.lost)
        report.wall_seconds = time.perf_counter() - started
        registry = _obs_metrics.METRICS
        registry.counter("sim.events").inc(report.events)
        registry.counter("sim.rounds").inc(len(report.rounds))
        if report.evicted:
            registry.counter("sim.clients_evicted").inc(report.evicted)
        if report.lost:
            registry.counter("sim.clients_lost").inc(report.lost)
        return report


# ----------------------------------------------------------------------
# full-fidelity event-driven trainer
# ----------------------------------------------------------------------


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
