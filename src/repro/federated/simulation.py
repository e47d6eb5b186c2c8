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
  closes, and evictions.  Besides popping one event, the queue reads the
  run events ahead of the heap head as one merged numpy block.
* :class:`AsyncRoundLoop` — a long-lived server loop over a *lightweight*
  population (per-client numpy state, no real models): rounds overlap in
  the sense that stragglers' uploads from earlier rounds are still in
  flight while later rounds run; each aggregation shard stops accepting a
  round's uploads at its own ``deadline:auto``-style cut-off (the max of
  its members' per-client deadlines); an upload arriving ``s`` shard-round
  closes late is aggregated at staleness ``s`` — or **evicted** when
  ``s > max_staleness``.  Each round's uploads enter the queue as one run,
  and the end of each client's training leg is counted as an event but
  never queued, since nothing happens when it passes.  A long stretch of
  run events between two heap events is applied as one numpy block; short
  stretches and heap events go one event at a time.  This is what scales
  to the 10^5–10^6-client regime of ``fig-scaling``.
* :class:`PopulationSimulator` — the user-facing facade: builds the
  population schedule (:mod:`repro.edge.arrivals`), derives per-client
  train/upload durations from each device's
  :class:`~repro.edge.network.NetworkLink` and FLOP throughput, runs the
  loop, and reports throughput, staleness histograms, and evictions.
* :class:`~repro.federated.event_trainer.EventDrivenTrainer` — the
  *full-fidelity* end: a federated trainer whose client presence is
  governed by the same event queue.  It lives in its own module, so the
  simulator imports no trainer: only :mod:`repro.edge`, :mod:`repro.obs`
  and the leaf :mod:`repro.federated.slices`.
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

from .. import _lazy_exports
from ..edge.arrivals import PopulationModel, PopulationSchedule, create_population
from ..edge.cluster import EdgeCluster, jetson_raspberry_cluster
from ..edge.network import NetworkModel
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from .slices import shard_slices


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

#: Sort keys past every event (``_NEVER``) and before every event
#: (``_UNKNOWN``), comparable with :class:`Event` and ``(time, seq)`` pairs.
_NEVER = (math.inf,)
_UNKNOWN = (-math.inf,)


class _Run:
    """A sorted run: its events as arrays plus a cursor ``pos``.

    ``probe`` is a lower bound on the ``(time, seq)`` key of the event
    ``min_events - 1`` past the cursor (``_NEVER`` when the run holds fewer):
    scalar pops only move the cursor forward, so a probe taken at an earlier
    cursor stays a lower bound until :meth:`seek` refreshes it.
    """

    __slots__ = ("times", "seqs", "kind", "clients", "round_index",
                 "generations", "pos", "probe")

    def __init__(self, times, seqs, kind, clients, round_index, generations):
        self.times, self.seqs, self.kind = times, seqs, kind
        self.clients, self.round_index = clients, round_index
        self.generations = generations
        self.pos = 0
        self.probe = _UNKNOWN

    def events(self):
        """Yield the events from the cursor on, in slices that grow to
        ``_RUN_SLICE``: a cursor that a block moves on is rebuilt for its
        head event, which should not cost a full slice."""
        times, seqs, clients = self.times, self.seqs, self.clients
        generations = self.generations
        start, size = self.pos, 16
        while start < len(times):
            part = slice(start, start + size)
            # tuple.__new__ on zipped rows builds each Event without a
            # Python frame per event
            yield from map(tuple.__new__, repeat(Event), zip(
                times[part].tolist(), seqs[part].tolist(), repeat(self.kind),
                clients[part].tolist(), repeat(self.round_index),
                repeat(-1) if generations is None
                else generations[part].tolist(),
            ))
            start, size = start + size, min(4 * size, _RUN_SLICE)

    def index(self, key) -> int:
        """Index of the first event at or after the ``(time, seq)`` key."""
        times = self.times
        if key is _NEVER:
            return len(times)
        time, seq = key[0], key[1]
        low = int(times.searchsorted(time))
        high = int(times.searchsorted(time, side="right"))
        if high > low:  # ties on time order by seq
            low += int(self.seqs[low:high].searchsorted(seq))
        return low

    def key(self, index: int):
        if index >= len(self.times):
            return _NEVER
        return float(self.times[index]), int(self.seqs[index])

    def seek(self, head: Event, min_events: int) -> None:
        """Put the cursor on ``head``, the run's next event, and re-probe."""
        # scalar pops leave the cursor behind; a block leaves it on the head
        if self.seqs[self.pos] != head.seq:
            self.pos = self.index(head)
        self.probe = self.key(self.pos + min_events - 1)


class RunBlock(NamedTuple):
    """Run events merged in ``(time, seq)`` order (:meth:`EventQueue.read_runs`).

    Per-event arrays; ``parts`` holds the ``(cursor, start, stop)`` run
    slices they merge, for :meth:`EventQueue.advance`.
    """

    times: np.ndarray
    kinds: np.ndarray
    clients: np.ndarray
    round_index: np.ndarray
    generations: np.ndarray
    parts: list


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

    :meth:`read_runs` is the bulk read: every run event ordered before the
    heap head, merged into numpy arrays, once some run holds enough of
    them; :meth:`advance` then takes the block, or the part of it up to a
    time, off the runs, and :meth:`pop` carries on from there.
    """

    def __init__(self):
        self._heap: list[Event] = []
        #: Min-heap of ``[head event, rest of the run, _Run]`` cursors.
        self._runs: list[list] = []
        #: Lower bound on every run's probe (see :meth:`read_runs`).
        self._lead = _NEVER
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
        # tuple.__new__ skips the namedtuple constructor's Python frame
        event = tuple.__new__(Event, (time, self._seq, int(kind), client,
                                      round_index, generation))
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
        # a stable sort by time is a sort by (time, seq); without ties any
        # sort is, and numpy's default one is several times faster
        order = np.argsort(times)
        ordered = times[order]
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(times, kind="stable")
            ordered = times[order]
        run = _Run(
            ordered, self._seq + order, int(kind), clients[order],
            round_index, None if generations is None else generations[order],
        )
        self._seq += count
        self.pushed += count
        self._size += count
        self._lead = _UNKNOWN
        events = run.events()
        heapq.heappush(self._runs, [next(events), events, run])

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

    def read_runs(self, min_events: int, limit: int) -> RunBlock | None:
        """The run events ordered before the heap head, merged in
        ``(time, seq)`` order: ``None`` unless one run alone holds at least
        ``min_events`` of them, and at most ``limit`` events from each run.

        Until the heap head passes ``_lead``, the least probe, a call costs
        one comparison; then the runs whose probe it passed are sought
        again.  Nothing is consumed: :meth:`advance` takes the block off
        the runs.
        """
        heap = self._heap
        head = heap[0] if heap else _NEVER
        if not self._lead < head:
            return None
        for cursor in self._runs:
            if cursor[2].probe < head:
                cursor[2].seek(cursor[0], min_events)
        self._lead = min((cursor[2].probe for cursor in self._runs),
                         default=_NEVER)
        if not self._lead < head:
            return None
        for cursor in self._runs:  # the block needs every cursor current
            cursor[2].seek(cursor[0], min_events)
        # each run gives its events before the bound: the heap head, or the
        # event `limit` past some run's cursor
        bound = head
        for cursor in self._runs:
            run = cursor[2]
            bound = min(bound, run.key(run.pos + limit))
        parts = []
        # seqs are reserved run by run, so runs in push order are in seq order
        for cursor in sorted(self._runs, key=lambda cursor: cursor[0].seq):
            run = cursor[2]
            stop = run.index(bound)
            if stop > run.pos:
                parts.append((cursor, run.pos, stop))
        runs = [(cursor[2], start, stop) for cursor, start, stop in parts]
        sizes = [stop - start for _, start, stop in runs]
        times = np.concatenate([run.times[a:b] for run, a, b in runs])
        # a stable sort of runs laid out in seq order keeps seq order on ties
        order = np.argsort(times, kind="stable") if len(runs) > 1 else None

        def merged(values):
            return values if order is None else values[order]

        return RunBlock(
            times=merged(times),
            kinds=merged(np.repeat([run.kind for run, _, _ in runs], sizes)),
            clients=merged(np.concatenate(
                [run.clients[a:b] for run, a, b in runs])),
            round_index=merged(np.repeat(
                [run.round_index for run, _, _ in runs], sizes)),
            generations=merged(np.concatenate([
                np.full(b - a, -1) if run.generations is None
                else run.generations[a:b] for run, a, b in runs
            ])),
            parts=parts,
        )

    def advance(self, block: RunBlock, until: float = math.inf) -> None:
        """Take ``block``'s events at or before time ``until`` off the runs."""
        taken = 0
        for cursor, start, stop in block.parts:
            run = cursor[2]
            if until < run.times[stop - 1]:
                stop = start + int(run.times[start:stop].searchsorted(
                    until, side="right"))
            taken += stop - start
            run.pos, run.probe = stop, _UNKNOWN
            events = run.events()
            cursor[0], cursor[1] = next(events, None), events
        self._size -= taken
        self._runs = [cursor for cursor in self._runs if cursor[0] is not None]
        heapq.heapify(self._runs)
        self._lead = _UNKNOWN

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0


# ----------------------------------------------------------------------
# lightweight population loop (10^5 – 10^6 clients)
# ----------------------------------------------------------------------

#: ``spawn_key`` purpose of the per-round training-time jitter stream.
_JITTER = 10

#: A stretch of run events before the heap head goes to numpy as one block
#: when a single run holds at least this many of them; shorter stretches
#: pop one event at a time.  Set at the measured crossover: on a 2-vCPU
#: SkylakeX host (numpy 2.4.6, Python 3.11), with every stretch timed on
#: each path over 100k- and 20k-50k-client churn runs, a block cost about
#: 150 us plus 0.2 us per event (three runs merged; 100 us for one), and a
#: popped event 2.4 us at every stretch length: the two meet near 70.
MIN_BLOCK = 64

#: A block reads at most this many events from each run, so one cut short
#: at a return merges at most this many per run in vain.  On the 100k-client
#: ``fixed,churn=60/120`` run, 1024 / 4096 / 16384 / 65536 took 433 / 196 /
#: 146 / 137 blocks and 0.21 / 0.17 / 0.16 / 0.16 s of CPU.
_BLOCK_LIMIT = 16384


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
    #: How the loop dispatched, not what it simulated: numpy blocks and the
    #: run events they covered (the rest popped one at a time).
    blocks: int = field(default=0, compare=False)
    block_events: int = field(default=0, compare=False)

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

    Dispatch.  Runs hold the bulk of the events (each round's upload
    completions, each arrival wave's first departures); the heap holds the
    few the loop creates as it goes.  When one run holds at least
    :data:`MIN_BLOCK` events before the heap head, the loop reads the
    whole stretch of run events before it as a block and applies it with
    numpy.  Inside a block no shard closes and no round opens, a client
    departs at most once and lands at most one upload of its generation,
    and a departure's return would pop after every event up to its time,
    so the block stops at the earliest return.  Returns and evictions go
    on the heap in block order, so every report equals the one-event-at-a-
    time loop's.  Shorter stretches pop one event at a time.
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
        present_count = 0
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
            report.peak_inflight = max(report.peak_inflight,
                                       int(np.count_nonzero(busy)))

        offtime, shard_index = schedule.offtime, self.shard_of
        # hot paths compare plain ints, and bind their lookups to locals
        upload_complete, arrival, departure, shard_close, eviction = map(int, (
            EventKind.UPLOAD_COMPLETE, EventKind.ARRIVAL, EventKind.DEPARTURE,
            EventKind.SHARD_CLOSE, EventKind.EVICTION,
        ))
        pop, push, read_runs = queue.pop, queue.push, queue.read_runs
        rounds = report.rounds
        shard_of, max_staleness = self.shard_of.tolist(), self.max_staleness
        departure_after = schedule.departure_after
        return_after = schedule.return_after
        blocks = block_events = 0

        def dispatch(block: RunBlock) -> None:
            """Apply a block of run events as the per-event branches would.

            Only heap events change ``shard_round`` or open a round, so both
            hold across the block, and every client departs at most once in
            it (it returns through a heap arrival first).
            """
            nonlocal events, present_count, blocks, block_events
            times, clients = block.times, block.clients
            leaving = (block.kinds == departure).nonzero()[0]
            gone = clients[leaving]
            until = math.inf
            if len(leaving):
                back = times[leaving] + offtime[gone]
                # a departure queues its return behind every queued event:
                # it pops after every event up to its time, and what it
                # queues may pop among the later ones, so the block ends at
                # the earliest return
                until = float(back.min())
                size = int(times.searchsorted(until, side="right"))
                if size < len(times):
                    kept = int(leaving.searchsorted(size))
                    leaving, gone, back = leaving[:kept], gone[:kept], back[:kept]
                    times = times[:size]
            size = len(times)
            uploads = (block.kinds[:size] == upload_complete).nonzero()[0]
            senders = clients[uploads]
            # an upload counts under the generation it was scheduled in (so
            # its client is busy, and present), unless its client departs
            # before it in the block
            valid = block.generations[uploads] == generation[senders]
            if len(leaving):
                # the departures' own effect, which also marks the uploads
                # whose client departs somewhere in the block
                present[gone] = False
                doubt = (valid & ~present[senders]).nonzero()[0]
                if len(doubt):
                    order = gone.argsort()
                    match = order[gone[order].searchsorted(senders[doubt])]
                    valid[doubt] = leaving[match] > uploads[doubt]
            uploads, senders = uploads[valid], senders[valid]
            busy[senders] = False
            if len(leaving):
                # still busy: no upload of its own landed earlier in the block
                rounds[-1].lost += int(np.count_nonzero(busy[gone]))
                busy[gone] = False
                generation[gone] += 1
                present_count -= len(gone)
            sent = block.round_index[uploads]
            late = np.array(shard_round)[shard_index[senders]] - sent
            over = late > max_staleness
            evicted = over.nonzero()[0]
            if len(evicted):
                late, sent = late[~over], sent[~over]
            if len(late):
                tally = np.bincount(late)
                values = tally.nonzero()[0].tolist()
                # a staleness seen first here enters the histogram in the
                # order the per-event branch would have met it
                first = {value: int((late == value).argmax())
                         for value in values if value not in hist}
                for value in sorted(first, key=first.get):
                    hist[value] = 0
                for value in values:
                    hist[value] += int(tally[value])
                fresh = np.bincount(sent[late == 0])
                for index in fresh.nonzero()[0].tolist():
                    rounds[index].reported += int(fresh[index])
                rounds[-1].stale += len(late) - int(tally[0])
            # returns and evictions join the heap in block order, taking the
            # seqs the per-event branches would have given them
            pushes = [
                (at, when, arrival, cid, -1)
                for at, when, cid in zip(leaving.tolist(), back.tolist(),
                                         gone.tolist())
                if when <= final_close  # a later return never pops
            ] if len(leaving) else []
            if len(evicted):
                at = uploads[evicted]
                pushes += zip(at.tolist(), times[at].tolist(), repeat(eviction),
                              senders[evicted].tolist(),
                              block.round_index[at].tolist())
                pushes.sort()
            for _, when, kind, cid, round_index in pushes:
                push(when, kind, client=cid, round_index=round_index)
            queue.advance(block, until)
            events += size
            blocks += 1
            block_events += size

        events = 0
        open_round(0)
        min_block = MIN_BLOCK
        check = True
        while True:
            if check:
                # pushes only pull the heap head earlier, so a run can get
                # MIN_BLOCK events ahead of it only when a heap event pops
                block = read_runs(min_block, _BLOCK_LIMIT)
                if block is not None:
                    dispatch(block)
                    continue
                check = False
            event = pop()
            events += 1
            kind = event.kind
            if kind == upload_complete:
                cid = event.client
                if event.generation != generation[cid]:
                    continue  # departed mid-flight; loss counted there
                busy[cid] = False
                late = shard_round[shard_of[cid]] - event.round_index
                if late <= max_staleness:
                    hist[late] = hist.get(late, 0) + 1
                    if late == 0:
                        rounds[event.round_index].reported += 1
                    else:
                        rounds[-1].stale += 1
                else:
                    push(event.time, eviction,
                         client=cid, round_index=event.round_index)
                continue
            check = True
            if kind == arrival:
                # a churned client returning online
                cid = event.client
                present[cid] = True
                present_count += 1
                if present_count > report.peak_present:
                    report.peak_present = present_count
                leave = departure_after(cid, event.time)
                if leave <= final_close:  # a later departure never pops
                    push(leave, departure, client=cid)
            elif kind == departure:
                cid = event.client
                present[cid] = False
                present_count -= 1
                generation[cid] += 1
                if busy[cid]:
                    busy[cid] = False
                    rounds[-1].lost += 1
                back = return_after(cid, event.time)
                if back <= final_close:  # a later return never pops
                    push(back, arrival, client=cid)
            elif kind == shard_close:
                shard_round[event.client] = event.round_index + 1
            elif kind == eviction:
                rounds[-1].evicted += 1
            else:  # ROUND_CLOSE
                stats = rounds[event.round_index]
                stats.close_seconds = event.time
                stats.skipped = stats.reported == 0 and stats.stale == 0
                if event.round_index + 1 >= self.num_rounds:
                    break
                open_round(event.round_index + 1)
        report.blocks += blocks
        report.block_events += block_events
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
                              evicted=report.evicted, lost=report.lost,
                              blocks=report.blocks,
                              block_events=report.block_events)
        report.wall_seconds = time.perf_counter() - started
        registry = _obs_metrics.METRICS
        registry.counter("sim.events").inc(report.events)
        registry.counter("sim.rounds").inc(len(report.rounds))
        if report.evicted:
            registry.counter("sim.clients_evicted").inc(report.evicted)
        if report.lost:
            registry.counter("sim.clients_lost").inc(report.lost)
        return report


# ``repro.federated.simulation.EventDrivenTrainer`` stays importable without
# the simulator importing the trainer
__getattr__, __dir__ = _lazy_exports(__name__, {
    ".event_trainer": ("EventDrivenTrainer",),
})
