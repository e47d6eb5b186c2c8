"""Tests for repro.serve: framed RPC, the socket engine, the service.

The bit-identity suite is the subsystem's acceptance bar: socket rounds
must reproduce serial rounds bit for bit across participation policies and
transports, with sharded aggregation folded on the server (over the same
wire traffic as an unsharded round) and with framed (``assume_remote``)
state broadcasts.  The fault suite kills workers mid-round and between
rounds and checks the service's survival contract: the round completes
with the surviving clients, the lost count lands on the
:class:`RoundRecord`, and reconnecting workers are admitted at the next
round boundary.  The lifecycle suite does the same at task boundaries,
which run on the workers: a worker lost there costs no client, and a
worker that joins between tasks takes its share of the clients.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import socket as socket_mod
import time

import numpy as np
import pytest

from repro.core.client import FedKnowClient
from repro.data import (
    ClientDataFactory,
    build_benchmark,
    cifar100_like,
    create_scenario,
)
from repro.edge import jetson_cluster
from repro.federated import (
    FedAvgServer,
    TrainConfig,
    create_engine,
    create_trainer,
)
from repro.federated.base import SGDClient
from repro.federated.sharding import ShardedAggregator
from repro.obs import METRICS, Telemetry
from repro.serve import (
    MAGIC,
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    FederationServer,
    MessageType,
    ProtocolError,
    RemoteError,
    RpcError,
    ServeStateHandle,
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
            a.send(MessageType.BYE)
            a.send_obj(MessageType.RESULT, {"x": np.arange(4.0), "n": 3})
            kind, payload = b.recv()
            assert kind == MessageType.BYE and payload == b""
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
            a.send(MessageType.BYE)
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
            # process, and shards fold on the server, one after another
            assert engine.rejects("flcn") is not None
            assert engine.rejects("fedknow") is None
            aggregator = engine.sharded_aggregator(FedAvgServer(), 2)
            assert type(aggregator) is ShardedAggregator
            assert aggregator.engine is None
        finally:
            engine.close()

    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, max_workers):
        # None means one worker per CPU; an explicit count must be >= 1
        with pytest.raises(ValueError, match="at least one worker"):
            SocketRoundEngine(max_workers=max_workers)

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


class _FullTmpfs:
    """An ``os.fdopen`` file whose writes fail as on a full tmpfs."""

    def __init__(self, fd: int, real_fdopen):
        self._file = real_fdopen(fd, "wb")

    def __enter__(self) -> "_FullTmpfs":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def write(self, data) -> int:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestBroadcastHandle:
    def test_failed_write_removes_its_file(self, monkeypatch):
        """A broadcast whose payload cannot be written raises, and leaves
        no tmpfs file behind (the leak guard fails the test otherwise)."""
        real_fdopen = os.fdopen
        monkeypatch.setattr(
            os, "fdopen", lambda fd, *_, **__: _FullTmpfs(fd, real_fdopen)
        )
        with pytest.raises(OSError) as raised:
            ServeStateHandle({"w": np.zeros(4)}, b"payload")
        assert raised.value.errno == errno.ENOSPC


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
    finally:
        trainer.close()
    return result, state


def assert_identical(reference, measured):
    ref_result, ref_state = reference
    got_result, got_state = measured
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

    def test_sharded_socket_matches_serial(self, spec, config):
        ref_result, ref_state = run_with_engine(
            spec, config, "fedavg", "serial"
        )

        def received(shards):
            """A socket run plus the frames and bytes the parent received."""
            before = (METRICS.value("rpc.frames_received"),
                      METRICS.value("rpc.bytes_received"))
            run = run_with_engine(
                spec, config, "fedavg", "socket:2", shards=shards
            )
            after = (METRICS.value("rpc.frames_received"),
                     METRICS.value("rpc.bytes_received"))
            return run, (after[0] - before[0], after[1] - before[1])

        (got_result, got_state), sharded_wire = received(3)
        _, unsharded_wire = received(1)
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
        # workers only train: sharding adds no frame and no byte to what
        # the parent receives
        assert sharded_wire == unsharded_wire


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
    @pytest.mark.parametrize("shards", [1, 2])
    def test_round_completes_and_records_lost_clients(
        self, spec, config, tmp_path, shards
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
                engine="socket:2", shards=shards,
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
        if shards > 1:
            # the survivors' updates went through the shard fold
            assert sum(poisoned.shard_reported) == poisoned.reported_clients
        # the worker died exactly once: every later round ran clean
        after = lost_counts[lost_counts.index(poisoned.lost) + 1:]
        assert all(count == 0 for count in after)
        # the full task sequence still produced accuracies
        assert result.accuracy_matrix.shape[0] == spec.num_tasks
        assert np.isfinite(result.accuracy_matrix[-1]).any()


class _DyingFedKnowClient(FedKnowClient):
    """A FedKNOW client that hard-exits its worker process once, while the
    one-shot poison token file exists; never the test process."""

    token_path: str | None = None
    #: This test process: a client running here (in-process) never dies.
    test_pid = os.getpid()

    def _die_once(self) -> None:
        path = type(self).token_path
        if (path is not None and os.getpid() != self.test_pid
                and os.path.exists(path)):
            try:
                os.unlink(path)
            finally:
                os._exit(1)


class _DiesInEndTask(_DyingFedKnowClient):
    def end_task(self):
        self._die_once()
        super().end_task()


class _DiesInSecondTask(_DyingFedKnowClient):
    """Dies in its first local step of task 1; records ``(position, pid)``
    of every local step it takes."""

    def local_train(self, iterations):
        if self.position == 1:
            self._die_once()
        self.trained_in = getattr(self, "trained_in", []) + [
            (self.position, os.getpid())
        ]
        return super().local_train(iterations)


def run_poisoned(spec, config, tmp_path, client_class):
    """A fedknow socket:2 run with client 0 of class ``client_class`` armed
    with a poison token; returns (result, the trainer's clients, whether
    the token was consumed)."""
    token = tmp_path / "poison.token"
    token.write_text("armed")
    client_class.token_path = str(token)
    try:
        bench = build_benchmark(
            spec, num_clients=3, rng=np.random.default_rng(0)
        )
        trainer = create_trainer(
            "fedknow", bench, config, cluster=jetson_cluster(),
            engine="socket:2",
        )
        trainer.clients[0].__class__ = client_class
        try:
            result = trainer.run()
        finally:
            trainer.close()
    finally:
        client_class.token_path = None
    assert not multiprocessing.active_children()
    return result, trainer.clients, not token.exists()


class TestWorkerDeathAtTaskBoundary:
    def test_end_phase_runs_again_for_a_dead_workers_clients(
        self, spec, config, tmp_path
    ):
        """A worker that dies in ``end_task`` loses no client: the end
        phase runs again for its clients on another worker."""
        result, clients, consumed = run_poisoned(
            spec, config, tmp_path, _DiesInEndTask
        )
        assert consumed, "end_task never ran in a worker"
        lost = [w for w in METRICS.warnings
                if w["counter"] == "serve.workers_lost"]
        assert "lost in task-boundary phase _EndPhase" in lost[-1]["message"]
        tasks = spec.num_tasks
        matrix = result.accuracy_matrix
        assert matrix.shape == (tasks, tasks)
        assert np.isfinite(matrix[np.tril_indices(tasks)]).all()
        assert [len(client.store) for client in clients] == [tasks] * 3

    def test_client_resumes_from_its_checkpoint_in_the_next_task(
        self, spec, config, tmp_path
    ):
        """A worker that dies in task 1's first round: its client comes
        back from the checkpoint taken at task 0's end, begins task 1 on
        another worker and keeps the knowledge it extracted at task 0."""
        result, clients, consumed = run_poisoned(
            spec, config, tmp_path, _DiesInSecondTask
        )
        assert consumed
        assert [(r.position, r.round_index) for r in result.rounds
                if r.lost] == [(1, 0)]
        client = clients[0]
        assert client.position == 1
        assert len(client.store) == spec.num_tasks
        first = {pid for position, pid in client.trained_in if position == 0}
        second = {pid for position, pid in client.trained_in if position == 1}
        assert second and not first & second
        assert np.isfinite(result.accuracy_matrix[-1]).all()


class TestEventDrivenSocket:
    def test_churn_matches_serial(self, spec, config):
        """Arrivals begin in begin phases on the workers; the round stream
        and the accuracy matrix equal the serial engine's."""
        def run(engine):
            scenario = create_scenario("class-inc")
            bench = scenario.build(
                spec, num_clients=4, rng=np.random.default_rng(0)
            )
            with create_trainer(
                "fedknow", bench, config, cluster=jetson_cluster(),
                engine=engine, population="uniform:4,churn=3/5",
                data_factory=ClientDataFactory(scenario, spec, 4, 0),
            ) as trainer:
                return trainer.run()

        reference = run("serial")
        socketed = run("socket:2")
        assert any(r.active_clients < 4 for r in reference.rounds)
        assert np.array_equal(
            reference.accuracy_matrix, socketed.accuracy_matrix,
            equal_nan=True,
        )
        assert reference.rounds == socketed.rounds


class TestTapeCaptures:
    def test_socket_captures_as_many_tapes_as_serial(self, config):
        """Clients keep their tapes on their workers across tasks: a socket
        run captures no tape that a serial run does not."""
        spec = cifar100_like(train_per_class=8, test_per_class=4).with_tasks(3)

        def captures(engine):
            bench = build_benchmark(
                spec, num_clients=3, rng=np.random.default_rng(0)
            )
            with Telemetry() as session:
                with create_trainer(
                    "fedknow", bench, config, cluster=jetson_cluster(),
                    engine=engine,
                ) as trainer:
                    trainer.run()
                return session.metrics_snapshot()["counters"]["tape.captures"]

        serial = captures("serial")
        assert serial > 0
        assert captures("socket:2") == serial


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
    def test_zero_workers_rejected_before_listening(self):
        # fails at construction, not at the first round, and binds no
        # listener (the leak guard errors on one left behind)
        with pytest.raises(ValueError, match="at least one worker"):
            FederationServer(
                "fedavg", "cifar100", "unit", num_workers=0, clients=3,
                tasks=1,
            )

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


class TestFederationServerRebalance:
    def test_worker_joining_between_tasks_takes_clients(self):
        """A worker that connects between tasks is given clients at the
        next task boundary, and the run still equals a serial run."""
        server = FederationServer(
            "fedknow", "cifar100", "unit", num_workers=1,
            clients=3, tasks=2, seed=0,
        )
        host, port = server.address
        spawn = lambda: multiprocessing.Process(
            target=run_worker, args=(host, port), daemon=True
        )
        workers = [spawn()]
        workers[0].start()
        begin_task = server.engine.begin_task

        def join_before_task_one(position):
            if position == 1:
                workers.append(spawn())
                workers[-1].start()
                server.engine.wait_for_workers(2, timeout=30.0)
            begin_task(position)

        server.engine.begin_task = join_before_task_one
        try:
            server.wait_for_workers(timeout=30.0)
            result = server.run()
            owners = {
                link.worker_id for link in server.engine._affinity.values()
            }
            # the old worker dropped the replica it gave away
            held = [c.client_id for c in server.engine.collect_clients()]
        finally:
            server.close()
            for process in workers:
                process.join(timeout=10.0)
        assert len(workers) == 2
        assert owners == {0, 1}
        assert sorted(held) == [0, 1, 2]
        from repro.data import get_spec
        from repro.experiments.config import get_preset

        preset = get_preset("unit").updated(num_clients=3, num_tasks=2)
        scaled = preset.apply_to_spec(get_spec("cifar100"))
        benchmark = create_scenario("class-inc").build(
            scaled, num_clients=3, rng=np.random.default_rng(0)
        )
        with create_trainer(
            "fedknow", benchmark, preset.train_config(seed=0),
            model_seed=1000, rng=np.random.default_rng(1),
        ) as trainer:
            expected = trainer.run()
        assert np.array_equal(
            expected.accuracy_matrix, result.accuracy_matrix, equal_nan=True
        )
        assert expected.rounds == result.rounds
