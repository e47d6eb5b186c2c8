"""Worker side of the socket federation service.

A worker process connects to the :class:`~repro.serve.server.FederationServer`
(or a self-spawned :class:`~repro.serve.engine.SocketRoundEngine`), completes
the version handshake, and then serves frames until the server says BYE or
the connection drops:

* **PHASE** — run a phase callable over this worker's assigned items:
  round training and download, and the trainer's task-boundary phases
  (``begin_task``; ``end_task`` with the stage's evaluation).  The worker
  keeps **persistent client replicas** across rounds and tasks: a client
  crosses the socket once, is cached by id, and every later dispatch ships
  a tiny :class:`ClientRef` stub instead — momentum buffers, RNG state,
  method state, captured tapes and task data stay put.  A replica that
  arrives without its task data gets it rebuilt once, on adoption, from
  the WELCOME's pickled data factory.  Every result, update states
  included, goes back whole in the RESULT frame; the worker keeps none of
  them, and the server aggregates.
* **STATE** — a framed global-state broadcast for remote workers; local
  workers read the tmpfs file instead and never receive this frame.  Both
  land in one broadcast store (:func:`resolve_broadcast`).
* **COLLECT** — ship the cached client replicas back (without
  factory-rebuilt task data): the server's checkpoint for worker-death
  recovery, taken after each task's end phase.

PHASE and COLLECT frames both carry the ids of replicas the server moved to
another worker; the worker drops those before anything else.

Phase exceptions travel back as ERROR frames (the engine re-raises them
parent-side); only protocol violations and a dead socket end the loop.
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import Sequence

from ..federated.base import FederatedClient
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace
from ..utils import runtime
from ..utils.serialization import decode_state
from .rpc import (
    MAGIC,
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    MessageType,
    ProtocolError,
    connect_with_retry,
)

__all__ = [
    "ClientRef",
    "WorkerSession",
    "dumps_without_data",
    "resolve_broadcast",
    "run_worker",
]


class ClientRef:
    """Affinity stub: stands in for a client cached on the other side."""

    __slots__ = ("client_id",)

    def __init__(self, client_id: int):
        self.client_id = client_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClientRef({self.client_id})"


def dumps_without_data(obj, clients: Sequence[FederatedClient]) -> bytes:
    """Pickle ``obj`` with ``clients`` crossing without their task data.

    Task data is deterministic, so the receiving side rebuilds (or already
    holds) it instead of paying to ship the arrays; ``clients`` keep their
    data on this side (a checkpoint replica that arrived without data
    leaves without it).
    """
    detached = [
        (client, client.detach_data())
        for client in clients if client.data is not None
    ]
    try:
        return pickle.dumps(obj, protocol=5)
    finally:
        for client, data in detached:
            client.attach_data(data)


# ----------------------------------------------------------------------
# the broadcast store
# ----------------------------------------------------------------------
#: Decoded broadcasts by token, newest last, whether framed or read from
#: tmpfs.  Two can be live at once (the round's receive broadcast plus the
#: transport's shared dense base for the next train phase), so pruning
#: keeps the two most recent.  Process-global rather than a
#: :class:`WorkerSession` attribute because its reader cannot reach the
#: session: ``ServeStateHandle.resolve`` runs inside a phase callable that
#: ``_handle_phase`` unpickles from a PHASE payload.  A worker process runs
#: one session, so the store is that session's.
_BROADCASTS: dict[str, dict] = {}
_BROADCAST_KEEP = 2

# Cached instrument handles (valid forever: ``drain`` zeroes in place).
_BROADCAST_HITS = _obs_metrics.METRICS.counter("broadcast.cache_hits")
_BROADCAST_DECODES = _obs_metrics.METRICS.counter("broadcast.decodes")
_FRAMED_DECODES = _obs_metrics.METRICS.counter("broadcast.framed_decodes")


def _store_broadcast(token: str, state: dict) -> None:
    _BROADCASTS[token] = state
    while len(_BROADCASTS) > _BROADCAST_KEEP:
        del _BROADCASTS[next(iter(_BROADCASTS))]


def resolve_broadcast(token: str, path: str) -> dict:
    """One broadcast's decoded state on this worker, shared by its clients.

    Framed broadcasts are already in the store; a local worker decodes the
    tmpfs file ``path`` on first use.
    """
    state = _BROADCASTS.get(token)
    if state is not None:
        _BROADCAST_HITS.inc()
        return state
    with open(path, "rb") as handle:
        state = decode_state(handle.read())
    _store_broadcast(token, state)
    _BROADCAST_DECODES.inc()
    return state


class WorkerSession:
    """One connected worker's frame loop and caches."""

    def __init__(self, conn: Connection, worker_id: int, data_factory=None):
        self.conn = conn
        self.worker_id = worker_id
        #: Picklable :class:`~repro.data.scenario.ClientDataFactory` that
        #: rebuilds task data for replicas shipped without it (or None).
        self.data_factory = data_factory
        #: client_id -> ClientData, built lazily from the factory once.
        self._task_data: dict | None = None
        #: Persistent client replicas, by client id (the affinity cache).
        self.clients: dict[int, FederatedClient] = {}
        #: Session tracer, created on the first traced PHASE and kept so
        #: span ids stay unique across this worker's phases.
        self._tracer: _obs_trace.Tracer | None = None
        #: True while the session tracer is installed as the process
        #: tracer (it stays installed *between* traced phases so the
        #: RESULT send and the next PHASE recv record rpc_frame spans;
        #: those ship with the following phase's telemetry).
        self._tracing = False

    def _tracer_for(self, ctx) -> _obs_trace.Tracer:
        tracer = self._tracer
        if tracer is None or tracer.trace_id != ctx[0]:
            tracer = self._tracer = _obs_trace.Tracer(
                trace_id=ctx[0],
                origin=f"sw{self.worker_id}p{os.getpid()}",
                process=f"worker-{self.worker_id}",
            )
        tracer.adopt(ctx)
        return tracer

    def _client_data(self, client_id: int):
        """Rebuild (and cache) one client's task data from the factory.

        The factory builds the whole lazy benchmark once — O(clients)
        thanks to lazy task streams — and each task's arrays materialize
        only when a client of this worker reaches it.
        Determinism of the scenario API guarantees the rebuilt arrays equal
        the parent's.
        """
        if self.data_factory is None:
            raise RuntimeError(
                "a client arrived without task data, and this worker has no "
                "client-data factory to rebuild it from"
            )
        if self._task_data is None:
            benchmark = self.data_factory()
            self._task_data = {
                data.client_id: data for data in benchmark.clients
            }
        return self._task_data[client_id]

    def _replica(self, item):
        """The item a PHASE entry stands for, adopting shipped clients."""
        if isinstance(item, ClientRef):
            cached = self.clients.get(item.client_id)
            if cached is None:
                raise ProtocolError(
                    f"server referenced client {item.client_id}, which "
                    f"this worker has not cached"
                )
            return cached
        if isinstance(item, FederatedClient):
            # first crossing (or re-assignment after a worker failure):
            # adopt the shipped replica as this worker's authoritative copy
            if item.data is None:
                item.attach_data(self._client_data(item.client_id))
            self.clients[item.client_id] = item
        return item

    def _release(self, client_ids) -> None:
        """Drop the replicas of clients the server moved elsewhere."""
        for client_id in client_ids:
            self.clients.pop(client_id, None)

    # -- frame handlers ------------------------------------------------
    def _handle_phase(self, payload: bytes) -> None:
        fn, entries, span_ctx, release = pickle.loads(payload)
        self._release(release)
        resolved = [(index, self._replica(item)) for index, item in entries]
        tracer = None
        if span_ctx is not None:
            # traced phase: run under a session tracer adopted into the
            # server's round span, then ship spans + a metrics delta back
            tracer = self._tracer_for(span_ctx)
            if _obs_trace.TRACER is not tracer:
                _obs_trace.set_tracer(tracer)
                self._tracing = True
        elif self._tracing:
            # the server turned telemetry off: return to the no-op path
            # and discard spans that will never be collected
            _obs_trace.set_tracer(_obs_trace.NullTracer())
            self._tracer.drain()
            self._tracing = False
        results = [(index, fn(item)) for index, item in resolved]
        telemetry = None if tracer is None else (
            tracer.drain(), _obs_metrics.METRICS.drain()
        )
        self.conn.send_obj(MessageType.RESULT, (results, telemetry))

    def _handle_state(self, payload: bytes) -> None:
        token, wire_bytes = pickle.loads(payload)
        _store_broadcast(token, decode_state(wire_bytes))
        _FRAMED_DECODES.inc()

    def _handle_collect(self, payload: bytes) -> None:
        self._release(pickle.loads(payload))
        clients = list(self.clients.values())
        # factory-rebuilt task data stays here: the parent holds its own
        shed = clients if self.data_factory is not None else ()
        self.conn.send(MessageType.RESULT, dumps_without_data(clients, shed))

    # -- loop ----------------------------------------------------------
    def run(self) -> None:
        while True:
            try:
                kind, payload = self.conn.recv()
            except ConnectionClosed:
                return
            if kind == MessageType.BYE:
                return
            try:
                if kind == MessageType.PHASE:
                    self._handle_phase(payload)
                elif kind == MessageType.STATE:
                    self._handle_state(payload)
                elif kind == MessageType.COLLECT:
                    self._handle_collect(payload)
                else:
                    raise ProtocolError(
                        f"worker cannot handle {kind.name} frames"
                    )
            except ConnectionClosed:
                return
            except Exception:
                # report the failure and stay alive: the engine re-raises
                # it parent-side once every worker's RESULT is drained
                self.conn.send_obj(
                    MessageType.ERROR, traceback.format_exc()
                )


def run_worker(
    host: str,
    port: int,
    *,
    attempts: int = 10,
    backoff: float = 0.05,
    assume_remote: bool = False,
) -> int:
    """Connect, handshake, and serve frames until the server lets go.

    ``assume_remote`` skips the tmpfs probe, forcing framed STATE
    broadcasts even on the server's host — the remote code path under test
    on one machine.  Returns the worker id the server assigned.
    """
    runtime.configure()
    # a forked worker starts with its parent's counters: zero them, or the
    # first traced phase ships the parent's totals back to it
    _obs_metrics.METRICS.drain()
    conn = connect_with_retry(host, port, attempts=attempts,
                              backoff=backoff, timeout=None)
    try:
        conn.send_obj(MessageType.HELLO, {
            "magic": MAGIC,
            "version": PROTOCOL_VERSION,
            "remote": bool(assume_remote),
        })
        _, welcome = conn.expect(MessageType.WELCOME)
        if welcome["version"] != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server speaks protocol v{welcome['version']}, this worker "
                f"v{PROTOCOL_VERSION}"
            )
        local = False
        if not assume_remote and welcome.get("probe_path"):
            # shared-filesystem probe: when the server's tmpfs probe file is
            # readable with the advertised token, broadcasts can ride the
            # shared-memory file instead of the socket
            try:
                with open(welcome["probe_path"], "r") as handle:
                    local = handle.read() == welcome["probe_token"]
            except OSError:
                local = False
        conn.send_obj(MessageType.READY, {"local": local})
        WorkerSession(
            conn, welcome["worker_id"], welcome["data_factory"]
        ).run()
        return welcome["worker_id"]
    finally:
        conn.close()
