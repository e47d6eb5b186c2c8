"""Tests for repro.serve: framed RPC, the socket engine, the service.

The bit-identity suite is the subsystem's acceptance bar: socket rounds
must reproduce serial rounds bit for bit across participation policies and
transports, with shard aggregation pulling remote segment partials and
with framed (``assume_remote``) state broadcasts.  The fault suite kills
workers mid-round and between rounds and checks the service's survival
contract: the round completes with the surviving clients, the lost count
lands on the :class:`RoundRecord`, and reconnecting workers are admitted
at the next round boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import socket as socket_mod
import time

import numpy as np
import pytest

from repro.data import build_benchmark, cifar100_like
from repro.edge import jetson_cluster
from repro.federated import (
    FedAvgServer,
    TrainConfig,
    create_engine,
    create_trainer,
)
from repro.federated.base import SGDClient
from repro.serve import (
    MAGIC,
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    FederationServer,
    MessageType,
    ProtocolError,
    RemoteError,
    RemoteShardedAggregator,
    RpcError,
    SocketRoundEngine,
    connect_with_retry,
    run_worker,
)


# ----------------------------------------------------------------------
# framed protocol
# ----------------------------------------------------------------------


def _pair() -> tuple[Connection, Connection]:
    left, right = socket_mod.socketpair()
    return Connection(left, timeout=5.0), Connection(right, timeout=5.0)


class TestRpc:
    def test_frame_roundtrip(self):
        a, b = _pair()
        try:
            a.send(MessageType.RESET)
            a.send_obj(MessageType.RESULT, {"x": np.arange(4.0), "n": 3})
            kind, payload = b.recv()
            assert kind == MessageType.RESET and payload == b""
            kind, obj = b.recv_obj()
            assert kind == MessageType.RESULT
            assert obj["n"] == 3
            assert np.array_equal(obj["x"], np.arange(4.0))
        finally:
            a.close()
            b.close()

    def test_expect_unwraps_error_frames(self):
        a, b = _pair()
        try:
            a.send_obj(MessageType.ERROR, "worker exploded")
            with pytest.raises(RemoteError, match="worker exploded"):
                b.expect(MessageType.RESULT)
        finally:
            a.close()
            b.close()

    def test_expect_rejects_unexpected_kind(self):
        a, b = _pair()
        try:
            a.send(MessageType.RESET)
            with pytest.raises(ProtocolError, match="expected RESULT"):
                b.expect(MessageType.RESULT)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_raises_connection_closed(self):
        a, b = _pair()
        try:
            # a header announcing 100 payload bytes, then EOF
            a.sock.sendall(bytes([int(MessageType.RESULT)]) + (100).to_bytes(4, "big"))
            a.close()
            with pytest.raises(ConnectionClosed):
                b.recv()
        finally:
            b.close()

    def test_unknown_type_byte_raises_protocol_error(self):
        a, b = _pair()
        try:
            a.sock.sendall(bytes([200]) + (0).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="unknown message type"):
                b.recv()
        finally:
            a.close()
            b.close()

    def test_oversized_frame_announcement_rejected(self):
        a, b = _pair()
        try:
            # a corrupt header announcing a 2 GiB payload: rejected before
            # any attempt to allocate or read it
            a.sock.sendall(
                bytes([int(MessageType.STATE)]) + (1 << 31).to_bytes(4, "big")
            )
            with pytest.raises(ProtocolError, match="protocol limit"):
                b.recv()
        finally:
            a.close()
            b.close()

    def test_retry_exhaustion_raises_rpc_error(self):
        # an ephemeral port we bound and immediately closed: nothing listens
        probe = socket_mod.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(RpcError, match="after 2 attempts"):
            connect_with_retry("127.0.0.1", port, attempts=2, backoff=0.01)

    def test_version_mismatch_rejected_with_error_frame(self):
        engine = SocketRoundEngine(max_workers=1, spawn_workers=False)
        try:
            host, port = engine.listen()
            conn = connect_with_retry(host, port, attempts=3, timeout=5.0)
            try:
                conn.send_obj(MessageType.HELLO, {
                    "magic": MAGIC, "version": PROTOCOL_VERSION + 7,
                    "remote": False,
                })
                assert engine.poll_admissions() == 0
                with pytest.raises(RemoteError, match="version mismatch"):
                    conn.expect(MessageType.WELCOME)
            finally:
                conn.close()
        finally:
            engine.close()


# ----------------------------------------------------------------------
# the socket engine's RoundEngine contract
# ----------------------------------------------------------------------


def _square(value: int) -> int:
    return value * value


def _explode(value: int) -> int:
    raise ValueError(f"phase bug on item {value}")


def _stall(value: int) -> int:
    """Stalls the worker on item 0, well past a short phase timeout."""
    time.sleep(2.0 if value == 0 else 0.0)
    return value


class TestSocketEngineApi:
    def test_create_engine_spec(self):
        engine = create_engine("socket:2")
        try:
            assert isinstance(engine, SocketRoundEngine)
            assert engine.max_workers == 2
            # the declared contract: server-coupled methods stay in
            # process, and shard partials are folded on the workers
            assert engine.rejects("flcn") is not None
            assert engine.rejects("fedknow") is None
            assert isinstance(
                engine.sharded_aggregator(FedAvgServer(), 2),
                RemoteShardedAggregator,
            )
        finally:
            engine.close()

    def test_map_preserves_order(self):
        engine = SocketRoundEngine(max_workers=2)
        try:
            assert engine.map(_square, range(16)) == [
                value * value for value in range(16)
            ]
            # the worker pool is persistent: a second map reuses it
            assert engine.map(_square, range(5)) == [0, 1, 4, 9, 16]
        finally:
            engine.close()

    def test_map_without_workers_raises(self):
        engine = SocketRoundEngine(max_workers=2, spawn_workers=False)
        try:
            engine.listen()
            with pytest.raises(RuntimeError, match="no connected workers"):
                engine.map(_square, range(4))
        finally:
            engine.close()

    def test_phase_exception_propagates_and_worker_survives(self):
        engine = SocketRoundEngine(max_workers=1)
        try:
            with pytest.raises(RemoteError, match="phase bug on item"):
                engine.map(_explode, range(3))
            # the worker reported the error and kept serving
            assert engine.map(_square, range(3)) == [0, 1, 4]
        finally:
            engine.close()

    def test_close_idempotent(self):
        engine = SocketRoundEngine(max_workers=1)
        engine.map(_square, [1])
        engine.close()
        engine.close()

    def test_stalled_worker_is_lost_not_awaited(self):
        """A worker stalled past the read timeout is declared lost: its
        items come back as ``None`` without waiting out the stall, and
        ``close()`` still reaps it (the leak guard checks no child and no
        listener outlives the test)."""
        from repro.obs import METRICS

        engine = SocketRoundEngine(max_workers=1, phase_timeout=0.5)
        try:
            assert engine.map(_square, [3]) == [9]  # spawn + handshake
            before = METRICS.value("serve.workers_lost")
            started = time.monotonic()
            results = engine.map(_stall, range(3))
            elapsed = time.monotonic() - started
            assert results == [None] * 3
            assert elapsed < 1.8, f"map waited {elapsed:.2f}s on a stall"
            assert METRICS.value("serve.workers_lost") == before + 1
        finally:
            engine.close()


# ----------------------------------------------------------------------
# bit-identity: socket rounds == serial rounds
# ----------------------------------------------------------------------


@pytest.fixture
def spec():
    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def config():
    return TrainConfig(batch_size=8, lr=0.02, rounds_per_task=2,
                       iterations_per_round=3)


def run_with_engine(spec, config, method, engine, participation=None,
                    transport=None, shards=1):
    """A fresh benchmark + trainer per run so both engines start identically."""
    bench = build_benchmark(spec, num_clients=3, rng=np.random.default_rng(0))
    trainer = create_trainer(
        method, bench, config, cluster=jetson_cluster(), engine=engine,
        participation=participation, transport=transport, shards=shards,
    )
    try:
        result = trainer.run()
        state = {
            key: value.copy()
            for key, value in trainer.server.global_state.items()
        }
        remote_segments = getattr(
            trainer.aggregator, "last_remote_segments", None
        )
    finally:
        trainer.close()
    return result, state, remote_segments


def assert_identical(reference, measured):
    ref_result, ref_state, _ = reference
    got_result, got_state, _ = measured
    assert np.array_equal(
        ref_result.accuracy_matrix, got_result.accuracy_matrix, equal_nan=True
    )
    assert ref_result.rounds == got_result.rounds
    assert set(ref_state) == set(got_state)
    for key in ref_state:
        assert np.array_equal(ref_state[key], got_state[key]), key


class TestSocketBitIdentity:
    @pytest.mark.parametrize("method", ["fedavg", "fedknow"])
    def test_matches_serial(self, spec, config, method):
        reference = run_with_engine(spec, config, method, "serial")
        socketed = run_with_engine(spec, config, method, "socket:2")
        assert_identical(reference, socketed)

    @pytest.mark.parametrize("participation,transport", [
        ("sampled:0.5", "v2:delta:0.1"),
        ("deadline:30", "v2:sparse:0.1"),
        ("full", "v1:dense"),
    ])
    def test_matches_serial_across_policies(self, spec, config,
                                            participation, transport):
        reference = run_with_engine(
            spec, config, "fedavg", "serial",
            participation=participation, transport=transport,
        )
        socketed = run_with_engine(
            spec, config, "fedavg", "socket:2",
            participation=participation, transport=transport,
        )
        assert_identical(reference, socketed)

    def test_sharded_aggregation_folds_partials_on_workers(self, spec, config):
        ref_result, ref_state, _ = run_with_engine(
            spec, config, "fedavg", "serial"
        )
        got_result, got_state, remote_segments = run_with_engine(
            spec, config, "fedavg", "socket:2", shards=3
        )
        # shard accounting lands on the records (so full record equality is
        # out by design); the model trajectory must still be bit-identical
        assert np.array_equal(
            ref_result.accuracy_matrix, got_result.accuracy_matrix,
            equal_nan=True,
        )
        for key in ref_state:
            assert np.array_equal(ref_state[key], got_state[key]), key
        for ref_round, got_round in zip(ref_result.rounds, got_result.rounds):
            assert ref_round.upload_bytes == got_round.upload_bytes
            assert ref_round.mean_loss == got_round.mean_loss
            assert got_round.shard_reported, "round ran unsharded"
        # the last round's segments were genuinely served by workers
        assert remote_segments is not None and remote_segments > 0


class _NoWorkerEngine:
    """A socket engine stand-in that knows no client and serves nothing."""

    def origin_link(self, client_id):
        return None

    def fetch_partials(self, per_link):
        return {}


class TestRemoteAggregatorDemotions:
    def test_demoted_segments_warn_through_registry(self):
        """Every demoted merge segment is classified, counted on the
        metrics registry, and surfaced as one structured warning — while
        the aggregate stays bit-identical to the unsharded server."""
        from repro.federated import ClientUpdate, FedAvgServer
        from repro.obs import METRICS
        from repro.serve.server import RemoteShardedAggregator

        rng = np.random.default_rng(0)
        updates = [
            ClientUpdate(
                client_id=i,
                state={"w": rng.normal(size=(64,)).astype(np.float32)},
                num_samples=10,
            )
            for i in range(4)
        ]
        updates[0].staleness = 1  # segment 0 demotes as stale
        reference = FedAvgServer().aggregate_updates(updates)
        aggregator = RemoteShardedAggregator(
            FedAvgServer(), 2, _NoWorkerEngine()
        )
        before = METRICS.value("serve.segments_demoted")
        result = aggregator.aggregate_updates(updates)
        # one single-update segment per update: 1 stale + 3 orphaned
        assert aggregator.last_remote_segments == 0
        assert aggregator.last_demotions == {"stale": 1, "orphaned": 3}
        assert METRICS.value("serve.segments_demoted") == before + 4
        warning = next(
            w for w in reversed(METRICS.warnings)
            if w["counter"] == "serve.segments_demoted"
        )
        assert warning["stale"] == 1 and warning["orphaned"] == 3
        assert "demoted to local folding" in warning["message"]
        for key in reference:
            assert np.array_equal(reference[key], result[key]), key


class TestRemoteWorkers:
    def test_assume_remote_framed_broadcasts_bit_identical(self, spec, config):
        """Workers that skip the tmpfs probe take STATE frames over the
        socket — the true-remote code path — and must still reproduce the
        serial round stream bit for bit."""
        reference = run_with_engine(spec, config, "fedavg", "serial")
        engine = SocketRoundEngine(max_workers=2, spawn_workers=False)
        host, port = engine.listen()
        workers = [
            multiprocessing.Process(
                target=run_worker, args=(host, port),
                kwargs={"assume_remote": True}, daemon=True,
            )
            for _ in range(2)
        ]
        for process in workers:
            process.start()
        try:
            engine.wait_for_workers(2, timeout=30.0)
            assert all(not link.local for link in engine._live())
            socketed = run_with_engine(spec, config, "fedavg", engine)
        finally:
            for process in workers:
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
        assert_identical(reference, socketed)


# ----------------------------------------------------------------------
# fault containment
# ----------------------------------------------------------------------


class _DyingClient(SGDClient):
    """Hard-exits the worker process once, the first time it trains while
    the one-shot poison token file exists (consumed before dying, so the
    respawned worker trains this client normally in later rounds)."""

    token_path: str | None = None

    def local_train(self, iterations):
        path = type(self).token_path
        if path is not None and os.path.exists(path):
            try:
                os.unlink(path)
            finally:
                os._exit(1)
        return super().local_train(iterations)


class TestWorkerDeathMidRound:
    def test_round_completes_and_records_lost_clients(
        self, spec, config, tmp_path
    ):
        token = tmp_path / "poison.token"
        token.write_text("armed")
        _DyingClient.token_path = str(token)
        try:
            bench = build_benchmark(
                spec, num_clients=3, rng=np.random.default_rng(0)
            )
            trainer = create_trainer(
                "fedavg", bench, config, cluster=jetson_cluster(),
                engine="socket:2",
            )
            trainer.clients[0].__class__ = _DyingClient
            try:
                result = trainer.run()
            finally:
                trainer.close()
        finally:
            _DyingClient.token_path = None
        assert not token.exists(), "the poison token was never consumed"
        lost_counts = [record.lost for record in result.rounds]
        assert sum(lost_counts) > 0, "no round recorded the dead worker"
        # the poisoned round still aggregated the surviving clients
        poisoned = next(r for r in result.rounds if r.lost > 0)
        assert not poisoned.skipped
        assert poisoned.reported_clients >= 1
        assert poisoned.reported_clients + poisoned.lost <= 3
        # the worker died exactly once: every later round ran clean
        after = lost_counts[lost_counts.index(poisoned.lost) + 1:]
        assert all(count == 0 for count in after)
        # the full task sequence still produced accuracies
        assert result.accuracy_matrix.shape[0] == spec.num_tasks
        assert np.isfinite(result.accuracy_matrix[-1]).any()


class TestFederationServerResilience:
    def test_serves_rounds_across_worker_kill_and_reconnect(self):
        """The service survives >= 3 rounds with a worker SIGKILLed after
        round 1 and a replacement connected before round 3; the server
        process never restarts and never loses the round counter."""
        server = FederationServer(
            "fedavg", "cifar100", "unit", num_workers=2,
            clients=3, tasks=1, seed=0,
        )
        host, port = server.address
        spawn = lambda: multiprocessing.Process(
            target=run_worker, args=(host, port), daemon=True
        )
        first, second = spawn(), spawn()
        first.start()
        second.start()
        third = None
        try:
            server.wait_for_workers(timeout=30.0)
            assert server.connected_workers() == 2
            round_one = server.run_rounds(1)[0]
            assert round_one.lost == 0
            assert round_one.reported_clients == 3

            # SIGKILL one worker between rounds: the next round loses that
            # worker's clients but completes with the survivors
            os.kill(first.pid, 9)
            first.join(timeout=10.0)
            round_two = server.run_rounds(1)[0]
            assert round_two.lost > 0
            assert round_two.reported_clients >= 1
            assert not round_two.skipped

            # a replacement connects; it is admitted at the next round's
            # dispatch and the round runs clean again at full strength
            third = spawn()
            third.start()
            server.engine.wait_for_workers(2, timeout=30.0)
            round_three = server.run_rounds(1)[0]
            assert round_three.lost == 0
            assert round_three.reported_clients == 3
            assert [r.round_index for r in (round_one, round_two,
                                            round_three)] == [0, 1, 2]
            server.sync_clients()
        finally:
            server.close()
            for process in (second, third):
                if process is not None:
                    process.join(timeout=10.0)
                    if process.is_alive():  # pragma: no cover
                        process.terminate()


# ----------------------------------------------------------------------
# the service wrapper end to end
# ----------------------------------------------------------------------


class TestFederationServer:
    def test_full_run_matches_direct_trainer(self):
        """FederationServer.run over spawned workers reproduces the plain
        serial run of the same recipe."""
        server = FederationServer(
            "fedavg", "cifar100", "unit", num_workers=2,
            clients=3, tasks=2, seed=0,
        )
        host, port = server.address
        workers = [
            multiprocessing.Process(
                target=run_worker, args=(host, port), daemon=True
            )
            for _ in range(2)
        ]
        for process in workers:
            process.start()
        try:
            server.wait_for_workers(timeout=30.0)
            result = server.run()
        finally:
            server.close()
            for process in workers:
                process.join(timeout=10.0)
        # a serial trainer over the same recipe, built the same way
        from repro.data import create_scenario, get_spec
        from repro.experiments.config import get_preset

        preset = get_preset("unit").updated(num_clients=3, num_tasks=2)
        scaled = preset.apply_to_spec(get_spec("cifar100"))
        scenario = create_scenario("class-inc")
        benchmark = scenario.build(
            scaled, num_clients=3, rng=np.random.default_rng(0)
        )
        trainer = create_trainer(
            "fedavg", benchmark, preset.train_config(seed=0),
            model_seed=1000, rng=np.random.default_rng(1),
        )
        try:
            expected = trainer.run()
        finally:
            trainer.close()
        assert np.array_equal(
            expected.accuracy_matrix, result.accuracy_matrix, equal_nan=True
        )
        assert expected.rounds == result.rounds
