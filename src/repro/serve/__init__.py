"""repro.serve — the socket federation service.

A long-lived :class:`FederationServer` serves aggregation rounds to
socket-connected worker processes over the framed protocol in
:mod:`repro.serve.rpc`.  The :class:`SocketRoundEngine` implements the
ordinary :class:`~repro.federated.engine.RoundEngine` contract, so
trainers, participation policies, transports and metrics work unchanged —
and bit-identically to the serial engine — while clients stay pinned to
their worker between rounds (sticky affinity).  Workers only train: every
update comes back whole in its RESULT frame, and the server aggregates it
exactly as the serial engine would.

Start a service with ``repro serve`` and attach workers with
``repro worker --connect HOST:PORT`` (see the README's Serving section),
or use ``create_trainer(..., engine="socket:W")`` for a self-managed
worker pool on one host.
"""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".engine": ("ServeStateHandle", "SocketRoundEngine"),
    ".rpc": (
        "MAGIC", "PROTOCOL_VERSION", "Connection", "ConnectionClosed",
        "MessageType", "ProtocolError", "RemoteError", "RpcError",
        "connect_with_retry",
    ),
    ".server": ("FederationServer",),
    ".worker": ("ClientRef", "WorkerSession", "run_worker"),
})

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "ClientRef",
    "Connection",
    "ConnectionClosed",
    "FederationServer",
    "MessageType",
    "ProtocolError",
    "RemoteError",
    "RpcError",
    "ServeStateHandle",
    "SocketRoundEngine",
    "WorkerSession",
    "connect_with_retry",
    "run_worker",
]
