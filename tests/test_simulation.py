"""Tests for the event-driven population simulator.

Covers the deterministic event queue, the arrival/churn process, the
lightweight million-client round loop (shard-local staleness cut-offs,
evictions, lost in-flight uploads), and the full-fidelity
:class:`EventDrivenTrainer` — including the **degenerate regression pin**:
under the ``fixed`` population the event-driven trainer must reproduce the
synchronous trainer's round stream bit-identically, across scenario
families and participation policies.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.data import cifar100_like, create_scenario
from repro.edge import (
    CHURN_SIGMA,
    PopulationModel,
    PopulationSchedule,
    create_population,
)
from repro.federated import (
    AsyncRoundLoop,
    EventDrivenTrainer,
    EventKind,
    EventQueue,
    FederatedTrainer,
    PopulationSimulator,
    SimReport,
    SimRound,
    TrainConfig,
    create_trainer,
)
from repro.federated import simulation
from repro.federated.simulation import _JITTER


class TestEventQueue:
    def test_orders_by_time_then_push_order(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.ROUND_CLOSE)
        queue.push(1.0, EventKind.ARRIVAL, client=7)
        queue.push(1.0, EventKind.DEPARTURE, client=7)  # same-time tie
        queue.push(0.5, EventKind.ARRIVAL, client=3)
        kinds = []
        while queue:
            event = queue.pop()
            kinds.append(event.kind)
        assert kinds == [
            EventKind.ARRIVAL, EventKind.ARRIVAL, EventKind.DEPARTURE,
            EventKind.ROUND_CLOSE,
        ]
        assert queue.pushed == 4

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek() is None and not queue
        queue.push(1.0, EventKind.ARRIVAL)
        assert queue.peek().time == 1.0
        assert len(queue) == 1 and bool(queue)

    def test_runs_pop_where_single_pushes_would(self):
        """A run takes the seqs its entries would have had as single pushes,
        so it interleaves with the heap by (time, seq), ties included."""
        rng = np.random.default_rng(0)
        # few distinct times: most pops are exact ties across stores
        blocks = [rng.integers(0, 4, size).astype(float)
                  for size in (5, 9000, 1, 7)]
        runs, singles = EventQueue(), EventQueue()
        for index, times in enumerate(blocks):
            clients = np.arange(len(times)) + 100 * index
            if index % 2:
                runs.push_run(times, EventKind.UPLOAD_COMPLETE, clients,
                              round_index=index, generations=clients % 3)
            else:
                for t, cid in zip(times.tolist(), clients.tolist()):
                    runs.push(t, EventKind.DEPARTURE, client=cid,
                              round_index=index)
            for t, cid in zip(times.tolist(), clients.tolist()):
                kind = (EventKind.UPLOAD_COMPLETE if index % 2
                        else EventKind.DEPARTURE)
                singles.push(t, kind, client=cid, round_index=index,
                             generation=cid % 3 if index % 2 else -1)
        assert len(runs) == len(singles) == runs.pushed == 9013
        popped = 0
        while runs:
            assert runs.peek() == singles.peek()
            assert runs.pop() == singles.pop()
            popped += 1
        assert popped == 9013 and not singles and runs.peek() is None


class TestPopulationSpecs:
    @pytest.mark.parametrize("spec", [
        "fixed",
        "fixed,churn=300/600",
        "uniform:600",
        "pareto:1.5",
        "pareto:1.5,scale=0.2,churn=300/600",
        "lognormal:0.8,scale=2",
    ])
    def test_describe_round_trips(self, spec):
        model = create_population(spec)
        assert create_population(model.describe()).describe() == \
            model.describe()

    def test_instance_passthrough(self):
        model = PopulationModel(family="pareto", shape=1.5)
        assert create_population(model) is model

    @pytest.mark.parametrize("bad", [
        "weibull:2",            # unknown family
        "fixed:5",              # fixed takes no argument
        "fixed,scale=2",        # ... nor a scale
        "pareto",               # missing shape
        "pareto:0.5",           # infinite-mean regime rejected
        "uniform:0",            # empty horizon
        "pareto:1.5,churn=300", # malformed churn pair
        "pareto:1.5,rate=2",    # unknown option
        "fixed,churn=nan/5",    # NaN passes a <= 0 check
        "fixed,churn=10/inf",
        "pareto:nan",
        "lognormal:nan",
        "pareto:1.5,scale=nan",
        "uniform:inf",          # overflows the uniform draw
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises((KeyError, ValueError)):
            create_population(bad)

    def test_degenerate_is_fixed_without_churn(self):
        assert create_population("fixed").degenerate
        assert not create_population("fixed,churn=10/20").degenerate
        assert not create_population("pareto:1.5").degenerate

    def test_schedule_deterministic_and_seed_sensitive(self):
        model = create_population("pareto:1.5,churn=300/600")
        a = model.schedule(500, seed=3)
        b = model.schedule(500, seed=3)
        c = model.schedule(500, seed=4)
        assert np.array_equal(a.arrival, b.arrival)
        assert np.array_equal(a.session, b.session)
        assert not np.array_equal(a.arrival, c.arrival)

    def test_churn_durations_mean_corrected(self):
        """Log-normal churn draws must average to the spec's means."""
        schedule = create_population("fixed,churn=300/600").schedule(
            20_000, seed=0
        )
        assert schedule.session.mean() == pytest.approx(300, rel=0.05)
        assert schedule.offtime.mean() == pytest.approx(600, rel=0.05)
        assert CHURN_SIGMA > 0  # dispersion actually applied

    def test_present_at_follows_cycle(self):
        schedule = create_population("fixed,churn=10/10").schedule(8, seed=0)
        assert schedule.present_at(0.0).all()
        # at each client's own mid-off-time phase it is offline
        t = schedule.session + schedule.offtime / 2
        online = np.array([
            schedule.present_at(float(t[i]))[i] for i in range(8)
        ])
        assert not online.any()


def _uniform_loop(n, train, upload, deadline, **kwargs):
    schedule = create_population("fixed").schedule(n, seed=0)
    return AsyncRoundLoop(
        schedule,
        np.full(n, train), np.full(n, upload), np.full(n, deadline),
        jitter_sigma=0.0, **kwargs,
    )


def _empty_report(loop):
    return SimReport(
        num_clients=loop.schedule.num_clients, population="test",
        shards=len(loop.shard_deadline), max_staleness=loop.max_staleness,
    )


def reference_run(loop, report):
    """The round loop with one heap entry per event, on plain ``heapq``.

    Every scheduled client queues a train and an upload completion, every
    first-wave departure is pushed one by one, and the train completions
    pop (and count) like any other event.  ``AsyncRoundLoop.run`` must
    reproduce its report exactly.
    """
    schedule = loop.schedule
    n = schedule.num_clients
    heap = []
    seq = 0

    def push(time, kind, client=-1, round_index=-1, generation=-1):
        nonlocal seq
        heapq.heappush(heap, (time, seq, int(kind), client, round_index,
                              generation))
        seq += 1

    present = np.zeros(n, dtype=bool)
    busy = np.zeros(n, dtype=bool)
    generation = np.zeros(n, dtype=np.int64)
    shard_round = [0] * len(loop.shard_deadline)
    hist = report.staleness_hist
    present_count = inflight = events = 0
    first_wave = iter(np.argsort(schedule.arrival, kind="stable").tolist())
    head = next(first_wave, None)

    def inject_arrivals(now):
        nonlocal head, present_count
        injected = 0
        while head is not None and schedule.arrival[head] <= now:
            present[head] = True
            present_count += 1
            injected += 1
            if schedule.has_churn:
                push(schedule.departure_after(head, schedule.arrival[head]),
                     EventKind.DEPARTURE, client=head)
            head = next(first_wave, None)
        report.peak_present = max(report.peak_present, present_count)
        return injected

    def open_round(round_index, now):
        nonlocal events
        events += inject_arrivals(now)
        ids = np.flatnonzero(present & ~busy)
        report.rounds.append(SimRound(
            round_index=round_index, open_seconds=now,
            active=present_count, planned=len(ids),
        ))
        if len(ids):
            rng = np.random.default_rng(np.random.SeedSequence(
                entropy=loop.seed, spawn_key=(_JITTER, round_index)
            ))
            jitter = np.exp(loop.jitter_sigma * rng.standard_normal(len(ids))
                            - 0.5 * loop.jitter_sigma**2)
            train_end = now + loop.train_seconds[ids] * jitter
            upload_end = now + (
                loop.train_seconds[ids] + loop.upload_seconds[ids]
            ) * jitter
            busy[ids] = True
            for cid, t_end, u_end, gen in zip(
                ids.tolist(), train_end.tolist(), upload_end.tolist(),
                generation[ids].tolist(),
            ):
                push(t_end, EventKind.TRAIN_COMPLETE, cid, round_index, gen)
                push(u_end, EventKind.UPLOAD_COMPLETE, cid, round_index, gen)
        for shard, cutoff in enumerate(loop.shard_deadline):
            push(now + cutoff, EventKind.SHARD_CLOSE, client=shard,
                 round_index=round_index)
        push(now + loop.round_deadline, EventKind.ROUND_CLOSE,
             round_index=round_index)

    open_round(0, 0.0)
    inflight = int(busy.sum())
    report.peak_inflight = max(report.peak_inflight, inflight)
    while True:
        time, _, kind, cid, round_index, gen = heapq.heappop(heap)
        events += 1
        if kind == EventKind.UPLOAD_COMPLETE:
            if gen != generation[cid]:
                continue
            busy[cid] = False
            inflight -= 1
            late = shard_round[loop.shard_of[cid]] - round_index
            if late <= loop.max_staleness:
                hist[late] = hist.get(late, 0) + 1
                if late == 0:
                    report.rounds[round_index].reported += 1
                else:
                    report.rounds[-1].stale += 1
            else:
                push(time, EventKind.EVICTION, client=cid,
                     round_index=round_index)
        elif kind == EventKind.TRAIN_COMPLETE:
            pass
        elif kind == EventKind.ARRIVAL:
            present[cid] = True
            present_count += 1
            report.peak_present = max(report.peak_present, present_count)
            if schedule.has_churn:
                push(schedule.departure_after(cid, time),
                     EventKind.DEPARTURE, client=cid)
        elif kind == EventKind.DEPARTURE:
            present[cid] = False
            present_count -= 1
            generation[cid] += 1
            if busy[cid]:
                busy[cid] = False
                inflight -= 1
                report.rounds[-1].lost += 1
            push(schedule.return_after(cid, time), EventKind.ARRIVAL,
                 client=cid)
        elif kind == EventKind.SHARD_CLOSE:
            shard_round[cid] = round_index + 1
        elif kind == EventKind.EVICTION:
            report.rounds[-1].evicted += 1
        else:
            stats = report.rounds[round_index]
            stats.close_seconds = time
            stats.skipped = stats.reported == 0 and stats.stale == 0
            if round_index + 1 >= loop.num_rounds:
                break
            open_round(round_index + 1, time)
            inflight = int(busy.sum())
            report.peak_inflight = max(report.peak_inflight, inflight)
    report.events += events
    return report


def assert_matches_reference(loop):
    report = loop.run(_empty_report(loop))
    assert report == reference_run(loop, _empty_report(loop))
    return report


class TestAgainstHeapReference:
    """The sorted-run loop reproduces the heap-per-event loop exactly: every
    ``SimRound`` field, the staleness histogram, the event count and both
    peaks."""

    @pytest.mark.parametrize("jitter", [0.0, 0.4])
    @pytest.mark.parametrize("max_staleness", [1, 2, 3])
    @pytest.mark.parametrize("shards", [1, 3, 16])
    @pytest.mark.parametrize("population", [
        "fixed",
        "fixed,churn=3/4",
        "pareto:1.5,scale=0.01,churn=4/6",
        "uniform:6,churn=3/5",
    ])
    def test_reports_equal(self, population, shards, max_staleness, jitter):
        # deadlines below each client's own round time make shard-local
        # stragglers, stale uploads and (with jitter) evictions; churn
        # loses uploads in flight
        sim = PopulationSimulator(
            300, population, num_rounds=6, shards=shards,
            max_staleness=max_staleness, slack=0.8, seed=3,
            jitter_sigma=jitter,
        )
        report = assert_matches_reference(sim.loop)
        assert report.events > report.scheduled

    def test_uploads_on_their_shard_cutoff_are_fresh(self):
        """Each upload lands exactly on its shard's cut-off and was queued
        before it, so it is fresh: a tie the run must win over the heap."""
        report = assert_matches_reference(
            _uniform_loop(10, 1.0, 1.0, 2.0, shards=2, num_rounds=3)
        )
        assert report.staleness_hist == {0: 30}

    def test_train_end_on_the_final_close_counts(self):
        """A training leg that ends exactly at the final close counts as an
        event, as its queued completion would have popped first."""
        report = assert_matches_reference(
            _uniform_loop(4, 2.0, 1.0, 2.0, num_rounds=1)
        )
        # 4 arrivals, 4 train ends, 1 shard close, 1 round close
        assert report.events == 10

    @pytest.mark.parametrize("population, seed", [
        ("fixed,churn=2/1", 7),
        ("uniform:4,churn=3/5", 0),
    ])
    def test_long_blocks_cut_at_returns(self, population, seed):
        """2,000 clients: long stretches of run events, cut short by the
        returns of their own departures; tight deadlines evict.  At these
        seeds a stretch holds a client's departure before its own upload,
        which it voids, and another's upload before its departure, which
        then loses nothing."""
        sim = PopulationSimulator(
            2_000, population, num_rounds=4, shards=16, max_staleness=1,
            slack=0.5, seed=seed, jitter_sigma=0.4,
        )
        report = assert_matches_reference(sim.loop)
        assert report.evicted and report.lost and report.staleness_hist[1]

    def test_a_return_inside_a_stretch_queues_before_later_departures(self):
        """Client 0 leaves at 0.5 and is back at 0.625, inside the stretch
        of departures before the first close; client 1 leaves at 0.75.  So
        client 0's next departure is queued before client 1's return, and
        at their tie (1.125) it pops first: client 1's return then makes
        no new peak, and client 2 leaves (1.1875) before client 0 is back.
        A stretch applied past client 0's return would queue client 1's
        return first, and count 4 present."""
        schedule = PopulationSchedule(
            arrival=np.array([0.0, 0.0, 0.0, 0.5]),
            session=np.array([0.5, 0.75, 1.1875, 4.0]),
            offtime=np.array([0.125, 0.375, 4.0, 4.0]),
        )
        loop = AsyncRoundLoop(
            schedule, np.full(4, 0.03125), np.full(4, 0.03125),
            np.full(4, 1.0), num_rounds=2, jitter_sigma=0.0,
        )
        report = assert_matches_reference(loop)
        assert report.peak_present == 3


class TestEachDispatchPath(TestAgainstHeapReference):
    """The heap-reference cases with every stretch of run events sent to
    numpy (``MIN_BLOCK`` 1) and with every event popped one at a time
    (``MIN_BLOCK`` past any run's length)."""

    @pytest.fixture(autouse=True, params=[1, 1 << 62],
                    ids=["numpy", "per-event"])
    def min_block(self, request, monkeypatch):
        monkeypatch.setattr(simulation, "MIN_BLOCK", request.param)


class TestAsyncRoundLoop:
    def run(self, loop):
        return loop.run(_empty_report(loop))

    def test_everyone_fresh_under_generous_deadline(self):
        report = self.run(
            _uniform_loop(10, 1.0, 1.0, 5.0, num_rounds=3)
        )
        assert [r.reported for r in report.rounds] == [10, 10, 10]
        assert report.staleness_hist == {0: 30}
        assert report.evicted == 0 and report.lost == 0
        assert not any(r.skipped for r in report.rounds)
        # rounds close at their deadline, back to back
        assert [r.close_seconds for r in report.rounds] == [5.0, 10.0, 15.0]

    def test_shard_local_staleness(self):
        """A slow client in a fast-cutoff shard aggregates one round late."""
        schedule = create_population("fixed").schedule(2, seed=0)
        loop = AsyncRoundLoop(
            schedule,
            np.array([1.0, 2.5]),      # train
            np.array([1.0, 2.5]),      # upload: client 1 finishes at t=5
            np.array([10.0, 0.1]),     # client 1's shard closes at t=0.1
            shards=2, max_staleness=2, num_rounds=2, jitter_sigma=0.0,
        )
        report = self.run(loop)
        # client 0 is fresh both rounds; client 1's upload lands after its
        # own shard's cut-off but before the next close -> staleness 1
        assert report.staleness_hist[0] == 2
        assert report.staleness_hist[1] >= 1
        assert report.evicted == 0

    def test_eviction_past_the_bound(self):
        schedule = create_population("fixed").schedule(2, seed=0)
        loop = AsyncRoundLoop(
            schedule,
            np.array([1.0, 12.0]),     # client 1 uploads at t=24
            np.array([1.0, 12.0]),
            np.array([10.0, 0.1]),     # its shard closed twice by then
            shards=2, max_staleness=1, num_rounds=4, jitter_sigma=0.0,
        )
        report = self.run(loop)
        assert report.evicted >= 1
        assert 2 not in report.staleness_hist  # never aggregates at 2+

    def test_churn_loses_inflight_uploads(self):
        sim = PopulationSimulator(
            5_000, population="pareto:1.5,scale=0.001,churn=10/20",
            num_rounds=5, shards=4, max_staleness=2, seed=0,
        )
        report = sim.run()
        assert report.lost > 0
        assert report.peak_present <= 5_000
        # departures can only lose uploads that were actually scheduled
        assert report.lost < report.scheduled

    def test_deterministic_across_runs(self):
        def fields():
            sim = PopulationSimulator(
                3_000, population="pareto:1.5,scale=0.002,churn=30/60",
                num_rounds=4, shards=8, max_staleness=2, seed=7,
            )
            report = sim.run()
            return (
                [(r.active, r.planned, r.reported, r.stale, r.evicted,
                  r.lost, r.close_seconds, r.skipped)
                 for r in report.rounds],
                dict(report.staleness_hist),
                report.events,
            )
        assert fields() == fields()

    def test_round_zero_skipped_before_first_arrival(self):
        sim = PopulationSimulator(
            1_000, population="pareto:1.5,scale=0.01", num_rounds=3, seed=0,
        )
        report = sim.run()
        assert report.rounds[0].planned == 0
        assert report.rounds[0].skipped
        assert report.rounds[-1].planned > 0

    def test_rejects_mismatched_arrays(self):
        schedule = create_population("fixed").schedule(4, seed=0)
        with pytest.raises(ValueError):
            AsyncRoundLoop(
                schedule, np.ones(3), np.ones(4), np.ones(4)
            )
        with pytest.raises(ValueError):
            AsyncRoundLoop(
                schedule, np.ones(4), np.ones(4), np.ones(4), max_staleness=0
            )

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
    def test_rejects_out_of_range_durations(self, bad):
        schedule = create_population("fixed").schedule(2, seed=0)
        ok, broken = np.ones(2), np.array([1.0, bad])
        with pytest.raises(ValueError, match="train"):
            AsyncRoundLoop(schedule, broken, ok, ok)
        with pytest.raises(ValueError, match="upload"):
            AsyncRoundLoop(schedule, ok, broken, ok)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_out_of_range_deadlines(self, bad):
        schedule = create_population("fixed").schedule(2, seed=0)
        with pytest.raises(ValueError, match="deadline"):
            AsyncRoundLoop(schedule, np.ones(2), np.ones(2),
                           np.array([1.0, bad]))

    @pytest.mark.parametrize("kwargs", [
        {"deadline": float("inf")},  # never closes a round: endless churn
        {"deadline": float("nan")},
        {"deadline": 0.0},
        {"slack": -1.0},             # would run virtual time backwards
        {"slack": 0.0},              # would close every round at its open
        {"slack": float("nan")},
        {"slack": float("inf")},
    ])
    def test_simulator_rejects_bad_deadline_and_slack(self, kwargs):
        with pytest.raises(ValueError):
            PopulationSimulator(100, "fixed,churn=10/20", num_rounds=2,
                                **kwargs)


@pytest.fixture
def spec():
    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=2,
                       iterations_per_round=3)


def build_trainer(spec, config, population, participation=None,
                  scenario="class-inc", num_clients=4):
    scen = create_scenario(scenario)
    bench = scen.build(spec, num_clients=num_clients,
                       rng=np.random.default_rng(0))
    return create_trainer(
        "fedavg", bench, config, participation=participation,
        population=population,
    )


class TestRegistryDispatch:
    def test_population_selects_event_driven_trainer(self, spec, config):
        with build_trainer(spec, config, None) as trainer:
            assert type(trainer) is FederatedTrainer
        with build_trainer(spec, config, "fixed") as trainer:
            assert isinstance(trainer, EventDrivenTrainer)
            assert trainer.population.degenerate


class TestDegeneratePin:
    """The regression pin: ``fixed`` population == synchronous trainer,
    bit for bit, across scenario families and participation policies."""

    @pytest.mark.parametrize("scenario", [
        "class-inc", "label-shift:dirichlet:0.3",
    ])
    @pytest.mark.parametrize("participation", [
        None, "deadline:auto", "sampled:0.5",
    ])
    def test_round_stream_bit_identical(self, spec, config, scenario,
                                        participation):
        with build_trainer(spec, config, None, participation,
                           scenario) as trainer:
            reference = trainer.run()
        with build_trainer(spec, config, "fixed", participation,
                           scenario) as trainer:
            event_driven = trainer.run()
        assert reference.rounds == event_driven.rounds
        assert np.array_equal(
            reference.accuracy_matrix, event_driven.accuracy_matrix,
            equal_nan=True,
        )


class TestChurnTrainer:
    def test_deadline_auto_never_deadlocks_under_churn(self, spec, config):
        """Clients departing between scheduling and reporting forfeit their
        uploads; round closes never wait for a client that left."""
        with build_trainer(spec, config, "fixed,churn=20/20",
                           "deadline:auto", num_clients=6) as trainer:
            result = trainer.run()
            closes = list(trainer.round_closes)
        assert len(result.rounds) == 4
        # virtual time advances monotonically through every close
        assert closes == sorted(closes)
        for record in result.rounds:
            assert record.reported_clients <= record.active_clients
        # churn actually bit: somebody was offline or forfeited somewhere
        assert any(
            r.reported_clients < r.active_clients or r.active_clients < 6
            for r in result.rounds
        )

    def test_churn_run_deterministic(self, spec, config):
        def run():
            with build_trainer(spec, config, "uniform:30,churn=15/30",
                               "deadline:auto", num_clients=5) as trainer:
                return trainer.run().rounds, list(trainer.round_closes)
        rounds_a, closes_a = run()
        rounds_b, closes_b = run()
        assert rounds_a == rounds_b
        assert closes_a == closes_b

    def test_everyone_offline_records_skipped_round(self, spec, config):
        """Sessions of ~0.5s against a 10s round deadline: by the second
        round everyone is offline (returns ~500s later), so the round must
        be recorded as skipped — not deadlock, not raise — and the clock
        must jump to the next arrival."""
        with build_trainer(spec, config, "fixed,churn=0.5/500",
                           "deadline:10", num_clients=3) as trainer:
            result = trainer.run()
        offline = [
            r for r in result.rounds if r.skipped and r.active_clients == 0
        ]
        assert offline, "expected a nobody-online skipped round"
        for record in offline:
            assert record.reported_clients == 0
            assert record.upload_bytes == 0
            assert np.isnan(record.mean_loss)

    def test_late_joiners_begin_mid_sequence(self, spec, config):
        """Uniform arrivals over a long horizon: clients that join after
        round 0 still train (their begin_task rides the lazy stream)."""
        with build_trainer(spec, config, "uniform:30", "deadline:auto",
                           num_clients=6) as trainer:
            result = trainer.run()
            arrivals = trainer.schedule.arrival
            closes = list(trainer.round_closes)
        # somebody genuinely arrived after the first round closed
        assert arrivals.max() > closes[0]
        # and the federation grew across rounds within the first stage
        actives = [r.active_clients for r in result.rounds[:2]]
        assert actives[0] <= actives[1]

    def test_arrivals_never_reached_raises(self, spec, config):
        with pytest.raises(ValueError):
            # impossible spec caught at parse time, not deadlock at run time
            build_trainer(spec, config, "uniform:-5")


class TestLatencyDrivenOpens:
    """Round opens follow the simulated network round trip: close waits on
    the slowest upload leg, and the next open waits on the broadcast's
    slowest download leg."""

    def build(self, spec, config, network, num_clients=3):
        scen = create_scenario("class-inc")
        bench = scen.build(spec, num_clients=num_clients,
                           rng=np.random.default_rng(0))
        return create_trainer(
            "fedavg", bench, config, population="fixed",
            with_cost_model=False, network=network,
        )

    def test_degenerate_all_unit_latency_pin(self, spec, config):
        """The regression pin: infinite bandwidth + a 1-second protocol
        latency (charged on the upload leg) and no cost model make every
        round's trip exactly one virtual second — opens [0, 1, 2, ...],
        closes [1, 2, 3, ...], downloads free."""
        import math

        from repro.edge.network import NetworkModel

        network = NetworkModel(
            bandwidth_bytes_per_second=math.inf, round_latency_seconds=1.0
        )
        with self.build(spec, config, network) as trainer:
            trainer.run()
            opens = list(trainer.round_opens)
            closes = list(trainer.round_closes)
        assert len(opens) == len(closes) == 4  # 2 tasks x 2 rounds
        assert opens == [float(i) for i in range(4)]
        assert closes == [float(i + 1) for i in range(4)]

    def test_finite_downlink_delays_next_open(self, spec, config):
        """With finite bandwidth the next round opens exactly one
        broadcast-download after the previous close (uniform links: every
        receiver downloads the same bytes at the same rate)."""
        from repro.edge.network import NetworkModel

        bandwidth = 1e6
        network = NetworkModel(
            bandwidth_bytes_per_second=bandwidth, round_latency_seconds=0.0
        )
        with self.build(spec, config, network) as trainer:
            result = trainer.run()
            opens = list(trainer.round_opens)
            closes = list(trainer.round_closes)
        for index, record in enumerate(result.rounds[:-1]):
            receivers = record.reported_clients
            per_client_down = record.download_bytes / receivers
            expected = closes[index] + per_client_down / bandwidth
            assert opens[index + 1] == pytest.approx(expected, rel=1e-12)
        # the download leg genuinely delayed something
        assert any(
            opens[i + 1] > closes[i] for i in range(len(closes) - 1)
        )

    def test_opens_and_closes_stay_paired_under_churn(self, spec, config):
        with build_trainer(spec, config, "fixed,churn=0.5/500",
                           "deadline:10", num_clients=3) as trainer:
            trainer.run()
            opens = list(trainer.round_opens)
            closes = list(trainer.round_closes)
        assert len(opens) == len(closes)
        assert all(o <= c for o, c in zip(opens, closes))
        assert opens == sorted(opens)


class TestEvictionEndToEnd:
    def test_bounded_carry_records_evictions(self, spec, config):
        """A tight fixed deadline with max=1 measured lateness evicts
        grossly late stragglers and re-syncs them."""
        with build_trainer(spec, config, "fixed",
                           "deadline:0.005,max=2",
                           num_clients=4) as trainer:
            result = trainer.run()
        total = sum(r.evicted for r in result.rounds)
        assert result.total_evicted_clients == total
