"""`SocketRoundEngine`: the round engine of the socket federation service.

Implements the :class:`~repro.federated.engine.RoundEngine` contract over
the framed TCP protocol of :mod:`repro.serve.rpc`.  Two modes share all of
the machinery:

* ``socket:W`` (self-managed) — the engine listens on a loopback port and
  spawns ``W`` worker processes running :func:`repro.serve.worker.run_worker`;
  workers that die are respawned at the next round's dispatch.
* service mode (``spawn_workers=False``) — the engine only listens; external
  ``repro worker`` processes connect whenever they like and are admitted at
  round boundaries (:class:`~repro.serve.server.FederationServer` runs this
  mode and also blocks in ``wait_for_workers`` at startup).

**Sticky worker↔client affinity.**  A client is assigned to a worker the
first time it is mapped and stays there, across rounds and task
boundaries: the full client object crosses the socket once, later
dispatches ship a :class:`~repro.serve.worker.ClientRef` stub, and phases
return only their results — momentum buffers, optimiser and RNG state,
captured tapes and task data stay on the worker.  Task boundaries are
phases too (the trainer's begin and end phases), so they run where the
clients live.  ``collect_clients`` ships the worker replicas back after
each task's end phase: the parent keeps them as the checkpoint a client
re-ships from when its worker dies, and runs nothing on them.

**Rebalancing.**  At a task boundary, :meth:`begin_task` admits waiting
workers.  If the set of live workers changed since the last boundary, the
fewest clients needed move from the most-loaded workers to the
least-loaded: each ships from the checkpoint, and its old worker drops its
replica with the next frame it receives.  Otherwise no client moves.

**Task data.**  With a data factory installed (:meth:`bind`), a client's
crossings and its COLLECT return travel without ``client.data``: the
worker rebuilds the task data from the factory once, when it adopts the
replica, and the parent's checkpoints carry none until the trainer hands
its clients back.  Without a factory the data travels with the client.

**Failure containment.**  When a worker dies mid-phase (socket error or
read timeout), its items come back as ``None`` instead of poisoning the
round — the trainer drops the lost clients from the round (the
participation policy already tolerates fewer reports than planned) and
records them on the :class:`~repro.metrics.tracker.RoundRecord`, or runs
a task-boundary phase again for them.  The dead worker's clients are
reassigned to surviving workers from the parent's checkpoint; a replica
from an earlier task begins the current one first, and a fresh broadcast
re-synchronizes its weights on the next round.

Results are bit-identical to the serial engine: clients are independent
within a round, the per-client float operations are unchanged, and outputs
are reassembled in item order.
"""

from __future__ import annotations

import os
import pickle
import socket
import tempfile
import time
import uuid
from typing import Callable, Iterable, Mapping, TypeVar

import multiprocessing

import numpy as np

from ..federated.base import FederatedClient
from ..federated.engine import RoundEngine, StateHandle
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from ..utils.serialization import encode_state
from .rpc import (
    MAGIC,
    PROTOCOL_VERSION,
    Connection,
    MessageType,
    RemoteError,
    RpcError,
)
from .worker import (
    ClientRef,
    dumps_without_data,
    resolve_broadcast,
    run_worker,
)

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["ServeStateHandle", "SocketRoundEngine"]

#: How long the engine waits for one phase RESULT before declaring the
#: worker dead.  Phases run whole local-training rounds, so generous.
PHASE_TIMEOUT = 300.0


class ServeStateHandle(StateHandle):
    """Broadcast handle that resolves locally, via tmpfs, or via STATE frames.

    The parent writes the wire-encoded state once to a tmpfs-backed file
    (``/dev/shm`` on Linux) and resolves to its own dict.  A pickled handle
    carries only the file path and a token: workers on this host decode the
    file once per broadcast, and remote workers already hold the state,
    delivered by a STATE frame — both through the worker's broadcast store
    (:func:`~repro.serve.worker.resolve_broadcast`), so a worker's clients
    share one decoded copy.  ``load_state_dict`` copies into existing
    parameter buffers, so that sharing is safe.
    """

    def __init__(self, state: Mapping[str, np.ndarray], payload: bytes):
        shm_dir = "/dev/shm" if os.path.isdir("/dev/shm") else None
        fd, path = tempfile.mkstemp(
            prefix="repro-broadcast-", suffix=".state", dir=shm_dir
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
        except BaseException:
            # no handle exists to release the file (a full tmpfs: ENOSPC)
            os.unlink(path)
            raise
        self.path = path
        self.token = uuid.uuid4().hex
        self._local: Mapping[str, np.ndarray] | None = dict(state)

    def __getstate__(self):
        # workers resolve through the file or a frame; never ship the state
        return {"path": self.path, "token": self.token, "_local": None}

    def resolve(self) -> Mapping[str, np.ndarray]:
        if self._local is not None:
            return self._local
        return resolve_broadcast(self.token, self.path)

    def release(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


class _WorkerLink:
    """Parent-side record of one connected worker."""

    def __init__(self, conn: Connection, worker_id: int, local: bool):
        self.conn = conn
        self.worker_id = worker_id
        self.local = local
        self.alive = True
        #: Client ids whose authoritative replica lives on this worker.
        self.cached: set[int] = set()
        #: Affinity load: the clients pinned to this worker.
        self.assigned = 0
        #: Client ids moved away, whose replicas this worker drops when it
        #: receives its next PHASE or COLLECT frame.
        self.release: set[int] = set()

    def take_release(self) -> tuple[int, ...]:
        release, self.release = tuple(sorted(self.release)), set()
        return release


def _spawned_worker(host: str, port: int) -> None:
    """Entry point of self-managed worker processes."""
    try:
        run_worker(host, port)
    except BaseException:  # pragma: no cover - exit code is the signal
        os._exit(1)


class SocketRoundEngine(RoundEngine):
    """Round work dispatched to socket-connected worker processes."""

    name = "socket"

    def __init__(
        self,
        max_workers: int | None = None,
        data_factory=None,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: bool = True,
        phase_timeout: float = PHASE_TIMEOUT,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"need at least one worker, got {max_workers}")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.data_factory = data_factory
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.phase_timeout = phase_timeout
        self._listener: socket.socket | None = None
        self._links: list[_WorkerLink] = []
        self._processes: list[multiprocessing.Process] = []
        self._affinity: dict[int, _WorkerLink] = {}
        #: Every client id ever placed on a worker (pinned or orphaned by a
        #: worker death): the count a rebalance spreads.
        self._placed: set[int] = set()
        #: Worker ids live at the last task boundary.
        self._boundary_workers: frozenset[int] | None = None
        self._next_worker_id = 0
        self._probe_path: str | None = None
        self._probe_token: str | None = None

    # ------------------------------------------------------------------
    # listening and admission
    # ------------------------------------------------------------------
    def listen(self) -> tuple[str, int]:
        """Bind and listen (idempotent); returns the bound ``(host, port)``."""
        if self._listener is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            sock.listen(64)
            self._listener = sock
            # shared-filesystem probe: workers that can read this token
            # through tmpfs share broadcasts by file instead of by frame
            shm_dir = "/dev/shm" if os.path.isdir("/dev/shm") else None
            fd, self._probe_path = tempfile.mkstemp(
                prefix="repro-serve-", suffix=".probe", dir=shm_dir
            )
            self._probe_token = uuid.uuid4().hex
            with os.fdopen(fd, "w") as handle:
                handle.write(self._probe_token)
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`listen`."""
        if self._listener is None:
            raise RuntimeError("engine is not listening yet")
        name = self._listener.getsockname()
        return name[0], name[1]

    def _live(self) -> list[_WorkerLink]:
        return [link for link in self._links if link.alive]

    def _admit_one(self, timeout: float) -> _WorkerLink | None:
        """Accept and handshake at most one worker connection."""
        self._listener.settimeout(timeout)
        try:
            sock, _ = self._listener.accept()
        except (socket.timeout, BlockingIOError):
            return None
        conn = Connection(sock, timeout=10.0)
        try:
            _, hello = conn.expect(MessageType.HELLO)
            if hello.get("magic") != MAGIC:
                raise RpcError("peer did not speak the serve protocol")
            if hello.get("version") != PROTOCOL_VERSION:
                conn.send_obj(
                    MessageType.ERROR,
                    f"protocol version mismatch: server v{PROTOCOL_VERSION}, "
                    f"worker v{hello.get('version')}",
                )
                raise RpcError("protocol version mismatch")
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            conn.send_obj(MessageType.WELCOME, {
                "version": PROTOCOL_VERSION,
                "worker_id": worker_id,
                "probe_path": self._probe_path,
                "probe_token": self._probe_token,
                "data_factory": self.data_factory,
            })
            _, ready = conn.expect(MessageType.READY)
        except (RpcError, OSError):
            conn.close()
            return None
        conn.settimeout(self.phase_timeout)
        link = _WorkerLink(conn, worker_id, local=bool(ready.get("local")))
        self._links.append(link)
        return link

    def poll_admissions(self) -> int:
        """Admit every worker currently waiting to connect (non-blocking)."""
        admitted = 0
        if self._listener is None:
            return admitted
        while self._admit_one(timeout=0.0) is not None:
            admitted += 1
        return admitted

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers are connected (or raise)."""
        self.listen()
        deadline = time.monotonic() + timeout
        while len(self._live()) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RpcError(
                    f"only {len(self._live())} of {count} workers connected "
                    f"within {timeout:.0f}s"
                )
            self._admit_one(timeout=min(remaining, 0.5))

    def _ensure_workers(self) -> None:
        self.listen()
        self.poll_admissions()
        if self.spawn_workers:
            self._processes = [p for p in self._processes if p.is_alive()]
            missing = self.max_workers - len(self._live())
            if missing > 0:
                host, port = self.address
                for _ in range(missing):
                    process = multiprocessing.Process(
                        target=_spawned_worker, args=(host, port), daemon=True
                    )
                    process.start()
                    self._processes.append(process)
                self.wait_for_workers(self.max_workers)
        if not self._live():
            raise RuntimeError(
                "no connected workers; start some with "
                "`repro worker --connect HOST:PORT`"
            )

    # ------------------------------------------------------------------
    # failure containment
    # ------------------------------------------------------------------
    def _mark_dead(self, link: _WorkerLink, where: str = "mid-round") -> None:
        if not link.alive:
            return
        link.alive = False
        link.conn.close()
        _obs_metrics.METRICS.warn(
            "serve.workers_lost",
            f"worker {link.worker_id} lost {where}; its clients are "
            f"reassigned at the next dispatch",
            worker_id=link.worker_id,
            cached_clients=len(link.cached),
        )
        # unpin the dead worker's clients: the next dispatch reassigns them
        # to surviving workers from the parent's checkpoint
        for client_id in [
            cid for cid, owner in self._affinity.items() if owner is link
        ]:
            del self._affinity[client_id]
        link.cached = set()

    # ------------------------------------------------------------------
    # the RoundEngine contract
    # ------------------------------------------------------------------
    def rejects(self, method: str) -> str | None:
        from ..federated.registry import PROCESS_UNSAFE_METHODS

        if method in PROCESS_UNSAFE_METHODS:
            return (
                "its clients exchange state with the live server mid-round; "
                "use the serial engine"
            )
        return None

    def bind(self, clients, data_factory=None) -> None:
        super().bind(clients, data_factory)
        if data_factory is None:
            return
        # workers receive the factory in their WELCOME
        if self._links:
            raise RuntimeError(
                "cannot install a data factory after workers have connected"
            )
        self.data_factory = data_factory

    def _affinity_for(
        self, client_id: int, live: list[_WorkerLink]
    ) -> _WorkerLink:
        link = self._affinity.get(client_id)
        if link is not None and link.alive:
            return link
        link = min(live, key=lambda l: (l.assigned, l.worker_id))
        link.assigned += 1
        self._affinity[client_id] = link
        self._placed.add(client_id)
        return link

    def _rebalance(self) -> None:
        """Spread the placed clients evenly over the live workers, moving
        the fewest.

        The most-loaded workers keep the larger shares; each worker over
        its share unpins its highest client ids and drops their replicas
        with its next frame.  Unpinned clients, and those of dead workers,
        go to the least-loaded workers at their next dispatch.
        """
        live = sorted(self._live(), key=lambda l: (-l.assigned, l.worker_id))
        share, larger = divmod(len(self._placed), len(live))
        for rank, link in enumerate(live):
            excess = link.assigned - share - (rank < larger)
            if excess <= 0:
                continue
            pinned = sorted(
                cid for cid, owner in self._affinity.items() if owner is link
            )
            for client_id in pinned[-excess:]:
                del self._affinity[client_id]
                link.cached.discard(client_id)
                link.release.add(client_id)
            link.assigned -= excess

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        tracer = _obs_trace.TRACER
        if tracer.enabled and tracer.current_context() is None:
            # worker spans need a parent on this side: a map outside every
            # span (a task boundary) opens one, under the name the e2e
            # harness gives the maps it wraps
            with tracer.span("engine_map"):
                return self._map(fn, items)
        return self._map(fn, items)

    def _map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if not items:
            return []
        self._ensure_workers()
        live = self._live()
        where = (
            f"in task-boundary phase {type(fn).__name__}"
            if getattr(fn, "task_boundary", False) else "mid-round"
        )
        # injected into every PHASE payload so worker-side spans stitch
        # under the caller's open (round) span; None when tracing is off
        span_ctx = _obs_trace.current_context()
        assignments: dict[int, list[tuple[int, T]]] = {}
        by_link = {link.worker_id: link for link in live}
        for index, item in enumerate(items):
            if isinstance(item, FederatedClient):
                link = self._affinity_for(item.client_id, live)
            else:
                link = live[index % len(live)]
            assignments.setdefault(link.worker_id, []).append((index, item))
        pending: list[_WorkerLink] = []
        for worker_id, entries in assignments.items():
            link = by_link[worker_id]
            wire = []
            crossing: list[FederatedClient] = []
            for index, item in entries:
                if isinstance(item, FederatedClient):
                    if item.client_id in link.cached:
                        item = ClientRef(item.client_id)
                    else:
                        crossing.append(item)
                wire.append((index, item))
            # with a factory the workers rebuild task data themselves
            shed = crossing if self.data_factory is not None else ()
            try:
                link.conn.send(
                    MessageType.PHASE,
                    dumps_without_data(
                        (fn, wire, span_ctx, link.take_release()), shed
                    ),
                )
            except RpcError:
                self._mark_dead(link, where)
                continue
            link.cached.update(client.client_id for client in crossing)
            pending.append(link)
        results: list[R | None] = [None] * len(items)
        phase_error: RemoteError | None = None
        for link in pending:
            try:
                _, (entries, telemetry) = link.conn.expect(MessageType.RESULT)
            except RemoteError as exc:
                # a phase bug, not a transport failure: keep draining the
                # other workers so the stream stays in sync, then re-raise
                phase_error = phase_error or exc
                continue
            except RpcError:
                self._mark_dead(link, where)
                continue
            if telemetry is not None:
                _obs_trace.TRACER.absorb(telemetry[0])
                _obs_metrics.METRICS.merge(telemetry[1])
            for index, result in entries:
                results[index] = result
        if phase_error is not None:
            raise phase_error
        return results

    def begin_task(self, position: int) -> None:
        if self._listener is None:
            return
        # (re)admissions happen at task boundaries too; clients move only
        # when the set of live workers changed since the last boundary
        self.poll_admissions()
        live = self._live()
        workers = frozenset(link.worker_id for link in live)
        if live and workers != self._boundary_workers:
            self._rebalance()
        self._boundary_workers = workers

    def share_state(self, state: Mapping[str, np.ndarray]) -> StateHandle:
        payload = encode_state(dict(state))
        handle = ServeStateHandle(state, payload)
        remote = [link for link in self._live() if not link.local]
        if remote:
            frame = pickle.dumps((handle.token, payload), protocol=5)
            for link in remote:
                try:
                    link.conn.send(MessageType.STATE, frame)
                except RpcError:
                    self._mark_dead(link)
        return handle

    # ------------------------------------------------------------------
    # the checkpoint
    # ------------------------------------------------------------------
    def collect_clients(self) -> list[FederatedClient]:
        """Ship every worker's client replicas back (the trainer's
        checkpoint for worker-death recovery)."""
        collected: list[FederatedClient] = []
        for link in self._live():
            if not (link.cached or link.release):
                continue
            try:
                link.conn.send_obj(MessageType.COLLECT, link.take_release())
                _, clients = link.conn.expect(MessageType.RESULT)
            except RpcError:
                self._mark_dead(link, "at the checkpoint")
                continue
            collected.extend(clients)
        return collected

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        for link in self._links:
            if link.alive:
                try:
                    link.conn.send(MessageType.BYE)
                except RpcError:
                    pass
            link.alive = False
            link.conn.close()
        self._links = []
        self._affinity = {}
        self._placed = set()
        self._boundary_workers = None
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)
        self._processes = []
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._probe_path is not None:
            try:
                os.unlink(self._probe_path)
            except FileNotFoundError:
                pass
            self._probe_path = None
