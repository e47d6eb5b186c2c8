"""Tests for the round lifecycle redesign: typed updates, policies, staleness.

Covers the contract the redesign must keep — :class:`FullParticipation`
reproduces the pre-policy trainer bit for bit — plus the new behaviour:
client sampling, deadline-based straggler handling with staleness-discounted
aggregation, and the participation accounting on :class:`RoundRecord`.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.data import build_benchmark, cifar100_like
from repro.edge import EdgeCluster, JETSON_AGX, JETSON_NANO, jetson_cluster
from repro.federated import (
    ClientUpdate,
    DeadlineParticipation,
    FedAvgServer,
    FullParticipation,
    POLICIES,
    SampledParticipation,
    SerialRoundEngine,
    TrainConfig,
    create_policy,
    create_trainer,
)
from repro.metrics.tracker import RoundRecord, RunResult
from repro.metrics.tracker import accuracy_matrix_from_client_evals


@pytest.fixture
def spec():
    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=2,
                       iterations_per_round=3)


def make_update(client_id, value, num_samples, sim_seconds=0.0, loss=0.5):
    return ClientUpdate(
        client_id=client_id,
        state={"w": np.array([value], dtype=np.float32)},
        num_samples=num_samples,
        mean_loss=loss,
        sim_seconds=sim_seconds,
    )


class TestCreatePolicy:
    def test_specs_resolve(self):
        assert isinstance(create_policy("full"), FullParticipation)
        sampled = create_policy("sampled:0.5", seed=3)
        assert isinstance(sampled, SampledParticipation)
        assert sampled.fraction == 0.5
        deadline = create_policy("deadline:30")
        assert isinstance(deadline, DeadlineParticipation)
        assert deadline.deadline_seconds == 30.0

    def test_instance_passthrough(self):
        policy = SampledParticipation(0.25)
        assert create_policy(policy) is policy

    def test_describe_round_trips(self):
        for spec_str in ("full", "sampled:0.5", "deadline:30"):
            assert create_policy(spec_str).describe() == spec_str

    def test_unknown_policy_raises(self):
        with pytest.raises(KeyError):
            create_policy("async")

    def test_missing_argument_raises(self):
        with pytest.raises(ValueError):
            create_policy("sampled")

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            SampledParticipation(0.0)
        with pytest.raises(ValueError):
            SampledParticipation(1.5)

    def test_invalid_deadline_raises(self):
        with pytest.raises(ValueError):
            DeadlineParticipation(0.0)

    def test_registry_names(self):
        assert set(POLICIES) == {"full", "sampled", "deadline"}

    def test_config_validates_participation(self):
        with pytest.raises(ValueError):
            TrainConfig(participation="async")

    def test_config_validates_policy_argument(self):
        with pytest.raises(ValueError):
            TrainConfig(participation="sampled:abc")
        with pytest.raises(ValueError):
            TrainConfig(participation="sampled:1.7")
        with pytest.raises(ValueError):
            TrainConfig(participation="deadline")

    def test_non_numeric_argument_message(self):
        with pytest.raises(ValueError, match="non-numeric"):
            create_policy("deadline:fast")


class TestEffectiveWeight:
    def test_fresh_update_keeps_integer_weight(self):
        update = make_update(0, 1.0, num_samples=7)
        assert update.effective_weight(0.5) == 7

    def test_stale_update_discounted(self):
        update = make_update(0, 1.0, num_samples=8)
        update.staleness = 1
        assert update.effective_weight(0.5) == pytest.approx(4.0)
        update.staleness = 2
        assert update.effective_weight(0.5) == pytest.approx(2.0)


class TestAggregateUpdates:
    def test_fresh_updates_match_plain_aggregate_exactly(self, rng):
        """All-fresh typed aggregation is bit-identical to states+weights."""
        states = [
            {"w": rng.normal(size=(4, 3)).astype(np.float32)} for _ in range(5)
        ]
        weights = [3, 9, 1, 5, 7]
        updates = [
            ClientUpdate(client_id=i, state=s, num_samples=w)
            for i, (s, w) in enumerate(zip(states, weights))
        ]
        plain = FedAvgServer().aggregate(states, weights)
        typed = FedAvgServer().aggregate_updates(updates)
        assert np.array_equal(plain["w"], typed["w"])

    def test_staleness_weighting_hand_computed(self):
        """weight = samples * discount^staleness: (3*1 + 2*5)/5 = 2.6."""
        fresh = make_update(0, 1.0, num_samples=3)
        stale = make_update(1, 5.0, num_samples=4)
        stale.staleness = 1
        out = FedAvgServer().aggregate_updates(
            [fresh, stale], staleness_discount=0.5
        )
        assert out["w"][0] == pytest.approx(2.6)


class TestSampledPolicy:
    def test_participant_count_and_membership(self):
        policy = SampledParticipation(0.3, rng=np.random.default_rng(0))
        active = list(range(10))
        plan = policy.plan_round(0, 0, active)
        assert len(plan.participants) == 3
        assert set(plan.participants) <= set(active)
        assert plan.participants == tuple(sorted(plan.participants))

    def test_at_least_one_participant(self):
        policy = SampledParticipation(0.01, rng=np.random.default_rng(0))
        plan = policy.plan_round(0, 0, [4, 9])
        assert len(plan.participants) == 1

    def test_deterministic_under_seed(self):
        plans_a = [
            SampledParticipation(0.5, rng=np.random.default_rng(7))
            .plan_round(0, r, list(range(8)))
            for r in range(3)
        ]
        plans_b = [
            SampledParticipation(0.5, rng=np.random.default_rng(7))
            .plan_round(0, r, list(range(8)))
            for r in range(3)
        ]
        assert [p.participants for p in plans_a] == [
            p.participants for p in plans_b
        ]

    def test_broadcast_vs_participant_receivers(self):
        active = list(range(6))
        broadcast = SampledParticipation(0.5, rng=np.random.default_rng(0))
        plan = broadcast.plan_round(0, 0, active)
        updates = [make_update(i, 0.0, 4) for i in plan.participants]
        assert broadcast.collect(plan, updates, active).receivers == tuple(active)
        local = SampledParticipation(
            0.5, rng=np.random.default_rng(0), broadcast=False
        )
        plan = local.plan_round(0, 0, active)
        updates = [make_update(i, 0.0, 4) for i in plan.participants]
        assert local.collect(plan, updates, active).receivers == plan.participants


class TestPolicySeedThreading:
    def test_policy_rng_follows_config_seed(self, spec, config):
        """The sampling RNG must vary with the training seed (seed sweeps)."""

        def plans(seed):
            bench = build_benchmark(
                spec, num_clients=6, rng=np.random.default_rng(0)
            )
            with create_trainer(
                "fedavg", bench, config.updated(seed=seed),
                with_cost_model=False, participation="sampled:0.5",
            ) as trainer:
                return [
                    trainer.policy.plan_round(0, r, list(range(6))).participants
                    for r in range(4)
                ]

        assert plans(3) == plans(3)  # reproducible under a fixed seed
        assert plans(3) != plans(4)  # distinct trajectories across seeds


class TestDeadlinePolicy:
    def test_two_round_staleness_scenario(self):
        """Hand-computed: client 1 misses round 0, aggregates in round 1."""
        policy = DeadlineParticipation(10.0, staleness_discount=0.5)
        active = [0, 1, 2]

        plan0 = policy.plan_round(0, 0, active)
        assert plan0.participants == (0, 1, 2)
        assert plan0.deadline_seconds == 10.0
        u0 = make_update(0, 1.0, num_samples=2, sim_seconds=5.0)
        u1 = make_update(1, 2.0, num_samples=6, sim_seconds=12.0)  # straggler
        u2 = make_update(2, 3.0, num_samples=2, sim_seconds=8.0)
        out0 = policy.collect(plan0, [u0, u1, u2], active)
        assert out0.reported == (0, 2)
        assert out0.stale == ()
        assert out0.receivers == (0, 2)
        assert out0.updates == [u0, u2]
        assert u1.staleness == 1

        # round 1: the straggler is not re-planned; its update joins late
        plan1 = policy.plan_round(0, 1, active)
        assert plan1.participants == (0, 2)
        v0 = make_update(0, 1.5, num_samples=2, sim_seconds=5.0)
        v2 = make_update(2, 3.5, num_samples=2, sim_seconds=20.0)  # straggles
        out1 = policy.collect(plan1, [v0, v2], active)
        assert out1.reported == (0,)
        assert out1.stale == (1,)
        assert out1.updates == [v0, u1]
        assert out1.receivers == (0, 1)
        # round-1 aggregate: (2 * 1.5 + 6 * 0.5 * 2.0) / (2 + 3) = 1.8
        out = FedAvgServer().aggregate_updates(
            out1.updates, staleness_discount=policy.staleness_discount
        )
        assert out["w"][0] == pytest.approx(1.8)

    def test_pending_dropped_at_task_boundary(self):
        policy = DeadlineParticipation(10.0)
        plan = policy.plan_round(0, 0, [0, 1])
        late = make_update(1, 1.0, num_samples=4, sim_seconds=99.0)
        policy.collect(plan, [make_update(0, 0.0, 4, 1.0), late], [0, 1])
        policy.begin_task(1)
        assert policy.plan_round(1, 0, [0, 1]).participants == (0, 1)


class TestMaxStaleness:
    def test_spec_round_trips(self):
        for spec_str in ("deadline:30,max=3", "deadline:auto,max=2",
                         "deadline:auto:1.5,max=4",
                         "deadline:30,discount=0.25,max=2"):
            policy = create_policy(spec_str)
            assert create_policy(policy.describe()).describe() == \
                policy.describe()
        assert create_policy("deadline:30,max=3").max_staleness == 3
        # the default bound is omitted from the canonical spec
        assert create_policy("deadline:30").describe() == "deadline:30"
        assert create_policy("deadline:30,max=1").describe() == "deadline:30"

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            create_policy("deadline:30,max=0")
        with pytest.raises(ValueError):
            create_policy("deadline:30,max=x")
        with pytest.raises(ValueError):
            create_policy("deadline:30,patience=2")
        with pytest.raises(ValueError):
            DeadlineParticipation(10.0, max_staleness=0)

    def test_default_bound_keeps_one_round_carry(self):
        """``max=1`` (the default) is the legacy semantics: every straggler
        carries exactly one round at staleness 1, however late it is."""
        policy = DeadlineParticipation(10.0)
        active = [0, 1]
        plan0 = policy.plan_round(0, 0, active)
        very_late = make_update(1, 2.0, num_samples=4, sim_seconds=500.0)
        out0 = policy.collect(
            plan0, [make_update(0, 1.0, 4, 5.0), very_late], active
        )
        assert out0.evicted == ()
        assert very_late.staleness == 1
        plan1 = policy.plan_round(0, 1, active)
        out1 = policy.collect(plan1, [make_update(0, 1.0, 4, 5.0)], active)
        assert out1.stale == (1,)
        assert very_late in out1.updates

    def test_measured_lateness_and_eviction(self):
        """``max=K`` measures rounds of lateness and evicts past the bound."""
        policy = DeadlineParticipation(10.0, max_staleness=2)
        active = [0, 1, 2, 3]
        plan0 = policy.plan_round(0, 0, active)
        u1 = make_update(1, 2.0, num_samples=4, sim_seconds=15.0)  # 1 late
        u2 = make_update(2, 3.0, num_samples=4, sim_seconds=25.0)  # 2 late
        u3 = make_update(3, 4.0, num_samples=4, sim_seconds=35.0)  # 3 late
        out0 = policy.collect(
            plan0, [make_update(0, 1.0, 4, 5.0), u1, u2, u3], active
        )
        assert out0.reported == (0,)
        assert out0.evicted == (3,)
        # evicted clients re-sync: they receive the new global state
        assert 3 in out0.receivers
        assert u1.staleness == 1 and u2.staleness == 2

        # round 1: only the 1-round-late straggler is due
        plan1 = policy.plan_round(0, 1, active)
        assert set(plan1.participants) == {0, 3}
        out1 = policy.collect(plan1, [make_update(0, 1.0, 4, 5.0)], active)
        assert out1.stale == (1,)
        assert u1 in out1.updates and u2 not in out1.updates

        # round 2: the 2-rounds-late straggler joins
        plan2 = policy.plan_round(0, 2, active)
        out2 = policy.collect(plan2, [make_update(0, 1.0, 4, 5.0)], active)
        assert out2.stale == (2,)
        assert u2 in out2.updates

    def test_drop_pending_forfeits_carry(self):
        """A departed client's pending straggler update never aggregates."""
        policy = DeadlineParticipation(10.0, max_staleness=2)
        active = [0, 1]
        plan0 = policy.plan_round(0, 0, active)
        late = make_update(1, 2.0, num_samples=4, sim_seconds=15.0)
        policy.collect(plan0, [make_update(0, 1.0, 4, 5.0), late], active)
        assert policy.drop_pending(1) is True
        assert policy.drop_pending(1) is False  # idempotent
        plan1 = policy.plan_round(0, 1, active)
        out1 = policy.collect(plan1, [make_update(0, 1.0, 4, 5.0)], active)
        assert out1.stale == ()
        assert late not in out1.updates


def reference_run(trainer, num_positions=None) -> RunResult:
    """The pre-redesign trainer loop (parallel states/weights/losses lists).

    A faithful replica of the seed ``FederatedTrainer.run``, kept here as
    the regression oracle: the policy-based trainer under
    :class:`FullParticipation` (and the dense-v1 transport) must reproduce
    it bit for bit.  Byte accounting is inlined as the seed computed it —
    the codec's exact encoded size of the uploaded/broadcast state.
    """
    from repro.utils.serialization import encoded_num_bytes

    num_positions = num_positions or trainer.clients[0].data.num_tasks
    rounds, stage_evals = [], []
    for position in range(num_positions):
        for client in trainer.active_clients():
            client.begin_task(position)
            if not trainer._check_memory(client, client.extra_state_bytes()):
                trainer._oom.add(client.client_id)
        active = trainer.active_clients()
        for round_index in range(trainer.config.rounds_per_task):
            states, weights, losses = [], [], []
            up_total, down_total = 0, 0
            train_seconds = 0.0

            def train_phase(client):
                stats = client.local_train(trainer.config.iterations_per_round)
                state = client.upload_state()
                up = trainer._real_bytes(
                    encoded_num_bytes(state) + client.extra_upload_bytes()
                )
                up += trainer._real_sample_bytes(client.upload_sample_bytes())
                return stats, state, up, client.take_compute_units()

            for client, (stats, state, up, units) in zip(
                active, trainer.engine.map(train_phase, active)
            ):
                losses.append(stats.get("mean_loss", np.nan))
                states.append(state)
                weights.append(client.num_train_samples)
                up_total += up
                train_seconds = max(
                    train_seconds, trainer._train_seconds(client, units)
                )
            global_state = trainer.server.aggregate(states, weights)

            def receive_phase(client):
                down = trainer._real_bytes(
                    encoded_num_bytes(global_state)
                    + client.extra_download_bytes()
                )
                client.receive_global(global_state, round_index)
                return down, client.take_compute_units()

            for client, (down, units) in zip(
                active, trainer.engine.map(receive_phase, active)
            ):
                down_total += down
                train_seconds = max(
                    train_seconds, trainer._train_seconds(client, units)
                )
            rounds.append(RoundRecord(
                position=position,
                round_index=round_index,
                upload_bytes=up_total,
                download_bytes=down_total,
                sim_train_seconds=train_seconds,
                sim_comm_seconds=trainer._comm_seconds(
                    up_total / max(len(active), 1),
                    down_total / max(len(active), 1),
                ),
                active_clients=len(active),
                mean_loss=float(np.nanmean(losses)),
            ))
        for client in active:
            client.end_task()
            client.take_compute_units()
        stage_evals.append(
            [client.evaluate(position) for client in trainer.clients]
        )
    return RunResult(
        method=trainer.method_name,
        dataset=trainer.dataset_name,
        num_clients=len(trainer.clients),
        num_tasks=num_positions,
        accuracy_matrix=accuracy_matrix_from_client_evals(stage_evals),
        rounds=rounds,
    )


class TestFullParticipationRegression:
    @pytest.mark.parametrize("method", ["fedavg", "fedknow"])
    def test_bit_identical_to_pre_redesign_loop(self, spec, config, method):
        def build():
            bench = build_benchmark(
                spec, num_clients=3, rng=np.random.default_rng(0)
            )
            return create_trainer(
                method, bench, config, cluster=jetson_cluster()
            )

        with build() as trainer:
            redesigned = trainer.run()
        with build() as trainer:
            reference = reference_run(trainer)

        assert np.array_equal(
            redesigned.accuracy_matrix, reference.accuracy_matrix,
            equal_nan=True,
        )
        assert len(redesigned.rounds) == len(reference.rounds)
        for a, b in zip(redesigned.rounds, reference.rounds):
            assert a.position == b.position
            assert a.round_index == b.round_index
            assert a.upload_bytes == b.upload_bytes
            assert a.download_bytes == b.download_bytes
            assert a.sim_train_seconds == b.sim_train_seconds
            assert a.sim_comm_seconds == b.sim_comm_seconds
            assert a.active_clients == b.active_clients
            assert a.mean_loss == b.mean_loss  # bit-identical losses
            # full participation: everyone planned, everyone reported
            assert a.planned_clients == a.active_clients
            assert a.reported_clients == a.active_clients
            assert a.stale_clients == 0


class TestSampledEndToEnd:
    def test_round_records_report_participation(self, spec, config):
        bench = build_benchmark(spec, num_clients=4,
                                rng=np.random.default_rng(0))
        with create_trainer(
            "fedavg", bench, config, cluster=jetson_cluster(),
            participation="sampled:0.5",
        ) as trainer:
            result = trainer.run()
        assert result.participation == "sampled:0.5"
        for record in result.rounds:
            assert record.active_clients == 4
            assert record.planned_clients == 2
            assert record.reported_clients == 2
            assert record.stale_clients == 0
            # broadcast: every active client downloads the aggregate
            assert record.download_bytes > record.upload_bytes


class TestDeadlineEndToEnd:
    def test_straggler_aggregates_next_round(self, spec, config):
        """Mixed AGX/Nano cluster: the Nano misses a mid-range deadline."""
        cluster = EdgeCluster([JETSON_AGX, JETSON_NANO])

        def build(**kwargs):
            bench = build_benchmark(spec, num_clients=2,
                                    rng=np.random.default_rng(0))
            return create_trainer("fedavg", bench, config, cluster=cluster,
                                  **kwargs)

        # pick a deadline strictly between the two devices' round times
        from repro.utils.serialization import encoded_num_bytes

        with build() as probe:
            units = float(config.iterations_per_round)
            times = [
                probe._train_seconds(client, units)
                + probe._channel_for(client).upload_seconds(
                    probe._real_bytes(encoded_num_bytes(client.upload_state()))
                )
                for client in probe.clients
            ]
        deadline = (min(times) + max(times)) / 2.0
        assert min(times) < deadline < max(times)

        with build(participation=f"deadline:{deadline}") as trainer:
            result = trainer.run()

        assert result.participation == f"deadline:{deadline:g}"
        first, second = result.rounds[0], result.rounds[1]
        # round 0: both planned, only the AGX reports in time
        assert (first.planned_clients, first.reported_clients,
                first.stale_clients) == (2, 1, 0)
        # round 1: the Nano sits out (update in flight), its stale update
        # from round 0 is aggregated now
        assert (second.planned_clients, second.reported_clients,
                second.stale_clients) == (1, 1, 1)
        # the deadline caps the synchronous wait
        assert first.sim_train_seconds <= deadline

    def test_empty_round_records_nan_loss_without_warning(self, spec, config):
        """Deadline below every client's time: round 1 has no participants."""
        bench = build_benchmark(spec, num_clients=2,
                                rng=np.random.default_rng(0))
        with create_trainer(
            "fedavg", bench, config, cluster=jetson_cluster(),
            participation="deadline:1e-6",
        ) as trainer:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # nanmean would warn on all-NaN
                result = trainer.run()
        first, second = result.rounds[0], result.rounds[1]
        assert (first.planned_clients, first.reported_clients,
                first.stale_clients) == (2, 0, 0)
        assert first.upload_bytes == 0  # nothing reached the server
        assert np.isfinite(first.mean_loss)  # clients trained and logged loss
        # round 1: nobody plans (all in flight); both stale updates land
        assert (second.planned_clients, second.reported_clients,
                second.stale_clients) == (0, 0, 2)
        assert np.isnan(second.mean_loss)
        assert second.upload_bytes > 0


class _ClosingEngine(SerialRoundEngine):
    """A serial engine that counts its ``close`` calls."""

    closed = 0

    def close(self) -> None:
        self.closed += 1


class TestTrainerContextManager:
    def test_exit_closes_its_engine(self, spec, config):
        bench = build_benchmark(spec, num_clients=2,
                                rng=np.random.default_rng(0))
        engine = _ClosingEngine()
        with create_trainer(
            "fedavg", bench, config, with_cost_model=False, engine=engine,
        ) as trainer:
            trainer.run()
            assert engine.closed == 0
        assert engine.closed == 1  # __exit__ closed the engine

    def test_exit_closes_its_engine_when_the_body_raises(self, spec, config):
        bench = build_benchmark(spec, num_clients=2,
                                rng=np.random.default_rng(0))
        engine = _ClosingEngine()
        with pytest.raises(RuntimeError, match="mid-run"):
            with create_trainer(
                "fedavg", bench, config, with_cost_model=False,
                engine=engine,
            ):
                raise RuntimeError("mid-run")
        assert engine.closed == 1

    def test_close_idempotent(self, spec, config):
        bench = build_benchmark(spec, num_clients=2,
                                rng=np.random.default_rng(0))
        trainer = create_trainer("fedavg", bench, config,
                                 with_cost_model=False)
        trainer.close()
        trainer.close()


class TestCacheKeyCanonicalization:
    def test_nested_dict_order_irrelevant(self, spec):
        from repro.experiments.config import UNIT
        from repro.experiments.runner import _cache_key

        a = _cache_key(
            "gem", spec, UNIT, 0, None, None, None,
            {"strategy_kwargs": {"memory_size": 8, "margin": 0.5}}, "full",
            "v1:dense",
        )
        b = _cache_key(
            "gem", spec, UNIT, 0, None, None, None,
            {"strategy_kwargs": {"margin": 0.5, "memory_size": 8}}, "full",
            "v1:dense",
        )
        assert a == b

    def test_nested_values_distinguished(self, spec):
        from repro.experiments.config import UNIT
        from repro.experiments.runner import _cache_key

        a = _cache_key(
            "gem", spec, UNIT, 0, None, None, None,
            {"strategy_kwargs": {"memory_size": 8}}, "full",
            "v1:dense",
        )
        b = _cache_key(
            "gem", spec, UNIT, 0, None, None, None,
            {"strategy_kwargs": {"memory_size": 16}}, "full",
            "v1:dense",
        )
        assert a != b

    def test_participation_in_key(self, spec):
        from repro.experiments.config import UNIT
        from repro.experiments.runner import _cache_key

        a = _cache_key("gem", spec, UNIT, 0, None, None, None, None, "full",
                       "v1:dense")
        b = _cache_key("gem", spec, UNIT, 0, None, None, None, None,
                       "sampled:0.5", "v1:dense")
        assert a != b

    def test_transport_in_key(self, spec):
        from repro.experiments.config import UNIT
        from repro.experiments.runner import _cache_key

        a = _cache_key("gem", spec, UNIT, 0, None, None, None, None, "full",
                       "v1:dense")
        b = _cache_key("gem", spec, UNIT, 0, None, None, None, None, "full",
                       "v2:delta:0.1")
        assert a != b

    def test_scenario_in_key(self, spec):
        from repro.experiments.config import UNIT
        from repro.experiments.runner import _cache_key

        a = _cache_key("gem", spec, UNIT, 0, None, None, None, None, "full",
                       "v1:dense", "class-inc")
        b = _cache_key("gem", spec, UNIT, 0, None, None, None, None, "full",
                       "v1:dense", "blurry:overlap=0.2")
        assert a != b
        # the default scenario key is the class-incremental family
        assert a == _cache_key("gem", spec, UNIT, 0, None, None, None, None,
                               "full", "v1:dense")

    def test_network_latency_in_key(self, spec):
        """Runs differing only in protocol latency must not share a cache
        entry (sim_comm_seconds depends on it)."""
        from repro.edge import NetworkModel
        from repro.experiments.config import UNIT
        from repro.experiments.runner import _cache_key

        fast = NetworkModel(round_latency_seconds=0.05)
        slow = NetworkModel(round_latency_seconds=10.0)
        a = _cache_key("gem", spec, UNIT, 0, None, fast, None, None, "full",
                       "v1:dense")
        b = _cache_key("gem", spec, UNIT, 0, None, slow, None, None, "full",
                       "v1:dense")
        assert a != b

    def test_equivalent_transport_specs_normalised(self):
        """"v2:delta" and "v2:delta:0.1" must share a cache entry."""
        from repro.federated import create_transport

        assert (create_transport("v2:delta").describe()
                == create_transport("v2:delta:0.1").describe()
                == create_transport("v2:delta:0.10").describe())
