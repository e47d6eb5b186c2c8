"""Framed socket protocol for the federation service.

The serve subsystem speaks a minimal length-prefixed protocol over TCP:
every frame is one message-type byte followed by a big-endian ``u32``
payload length and the payload bytes.  Control messages (phase dispatch,
collected results, errors) are pickled with protocol 5;
state broadcasts carry the existing wire-format bytes produced by
:func:`repro.utils.serialization.encode_state`, so remote workers decode
exactly what local workers read from the tmpfs broadcast file.

Connections are explicit about failure: a closed or half-read socket
raises :class:`ConnectionClosed`, a frame that violates the protocol
raises :class:`ProtocolError`, and every read honours a per-connection
timeout so a dead peer cannot hang a round forever.  ``connect_with_retry``
gives workers bounded exponential backoff while the server comes up, and
the HELLO/WELCOME handshake carries an explicit protocol version so
mismatched builds fail loudly instead of mis-parsing frames.
"""

from __future__ import annotations

import enum
import pickle
import socket
import struct
import time

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace

#: First bytes of every HELLO — guards against a stray client speaking a
#: different protocol on the same port.
MAGIC = b"RSRV"

#: Bumped whenever the frame layout or a message payload changes shape.
#: v2: PHASE payloads carry a span context, RESULT payloads a telemetry
#: tail (worker spans + metrics delta) — see :mod:`repro.obs`.
#: v3: RESULT payloads are ``(results, telemetry)``; type bytes 9-10 retired.
PROTOCOL_VERSION = 3

# Cached instrument handles (always-on; ``drain`` zeroes them in place).
_FRAMES_SENT = _obs_metrics.METRICS.counter("rpc.frames_sent")
_FRAMES_RECEIVED = _obs_metrics.METRICS.counter("rpc.frames_received")
_BYTES_SENT = _obs_metrics.METRICS.counter("rpc.bytes_sent")
_BYTES_RECEIVED = _obs_metrics.METRICS.counter("rpc.bytes_received")
_CONNECT_RETRIES = _obs_metrics.METRICS.counter("rpc.connect_retries")

#: Frame header: one message-type byte + big-endian u32 payload length.
_HEADER = struct.Struct(">BI")

#: Payloads beyond this are a protocol violation (corrupt length prefix),
#: not a legitimate broadcast — 1 GiB comfortably clears any model state.
MAX_FRAME_BYTES = 1 << 30

#: Default per-read timeout; phases train whole rounds, so generous.
DEFAULT_TIMEOUT = 120.0


class MessageType(enum.IntEnum):
    """Message-type byte of each frame."""

    HELLO = 1            # worker -> server: magic + version + remote flag
    WELCOME = 2          # server -> worker: worker id, probe, data factory
    READY = 3            # worker -> server: handshake complete, local flag
    PHASE = 4            # server -> worker: run a phase over assigned items
    RESULT = 5           # worker -> server: phase results (+ telemetry)
    STATE = 6            # server -> worker: framed global-state broadcast
    RESET = 7            # server -> worker: task boundary, drop caches
    COLLECT = 8          # server -> worker: ship cached client replicas back
    ERROR = 11           # either side: remote exception (payload: message)
    BYE = 12             # server -> worker: shut down cleanly


class RpcError(ConnectionError):
    """Base class for serve-protocol connection failures."""


class ConnectionClosed(RpcError):
    """The peer closed the socket (EOF mid-frame counts)."""


class ProtocolError(RpcError):
    """The peer sent bytes that violate the framed protocol."""


class RemoteError(RuntimeError):
    """The peer reported an exception through an ERROR frame."""


def _recv_exact(sock: socket.socket, num_bytes: int) -> bytes:
    chunks = []
    remaining = num_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"peer closed connection with {remaining} of {num_bytes} "
                f"frame bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class Connection:
    """One framed peer connection (server->worker or worker->server).

    Wraps a connected socket with frame send/receive, pickled control
    payloads, and a configurable read timeout (``None`` blocks forever —
    the worker side, which legitimately idles between rounds).
    """

    def __init__(self, sock: socket.socket, timeout: float | None = DEFAULT_TIMEOUT):
        sock.settimeout(timeout)
        # round frames are latency-sensitive (many small control messages)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP test doubles
            pass
        self.sock = sock
        self.closed = False

    def settimeout(self, timeout: float | None) -> None:
        self.sock.settimeout(timeout)

    def send(self, kind: MessageType, payload: bytes = b"") -> None:
        if len(payload) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame payload of {len(payload)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte protocol limit"
            )
        try:
            with _obs_trace.TRACER.span("rpc_frame", dir="send",
                                        kind=kind.name, bytes=len(payload)):
                self.sock.sendall(
                    _HEADER.pack(int(kind), len(payload)) + payload
                )
        except OSError as exc:
            raise ConnectionClosed(f"send failed: {exc}") from exc
        _FRAMES_SENT.inc()
        _BYTES_SENT.inc(_HEADER.size + len(payload))

    def send_obj(self, kind: MessageType, obj) -> None:
        self.send(kind, pickle.dumps(obj, protocol=5))

    def recv(self) -> tuple[MessageType, bytes]:
        try:
            header = _recv_exact(self.sock, _HEADER.size)
            kind_byte, length = _HEADER.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame announces {length} payload bytes, beyond the "
                    f"{MAX_FRAME_BYTES}-byte protocol limit"
                )
            # timed from after the header so the span measures the
            # payload transfer, not the idle wait for a frame to start
            with _obs_trace.TRACER.span("rpc_frame", dir="recv",
                                        kind=kind_byte, bytes=length):
                payload = _recv_exact(self.sock, length)
        except socket.timeout as exc:
            raise RpcError("read timed out waiting for a frame") from exc
        except OSError as exc:
            if isinstance(exc, RpcError):
                raise
            raise ConnectionClosed(f"recv failed: {exc}") from exc
        try:
            kind = MessageType(kind_byte)
        except ValueError:
            raise ProtocolError(f"unknown message type byte {kind_byte}")
        _FRAMES_RECEIVED.inc()
        _BYTES_RECEIVED.inc(_HEADER.size + length)
        return kind, payload

    def recv_obj(self) -> tuple[MessageType, object]:
        kind, payload = self.recv()
        return kind, (pickle.loads(payload) if payload else None)

    def expect(self, *kinds: MessageType) -> tuple[MessageType, object]:
        """Receive one frame; unwrap ERROR frames, enforce expected kinds."""
        kind, obj = self.recv_obj()
        if kind == MessageType.ERROR and MessageType.ERROR not in kinds:
            raise RemoteError(str(obj))
        if kind not in kinds:
            raise ProtocolError(
                f"expected {'/'.join(k.name for k in kinds)}, got {kind.name}"
            )
        return kind, obj

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.sock.close()
            except OSError:  # pragma: no cover
                pass


def connect_with_retry(
    host: str,
    port: int,
    attempts: int = 10,
    backoff: float = 0.05,
    timeout: float | None = DEFAULT_TIMEOUT,
) -> Connection:
    """Connect to the federation server with bounded exponential backoff.

    Workers typically race the server's ``listen``; retrying with doubling
    sleeps (capped at one second per wait) absorbs that startup window.
    The final failure re-raises the last ``OSError``.
    """
    if attempts < 1:
        raise ValueError(f"need at least one connection attempt, got {attempts}")
    delay = backoff
    last: OSError | None = None
    for attempt in range(attempts):
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            return Connection(sock, timeout=timeout)
        except OSError as exc:
            last = exc
            if attempt + 1 < attempts:
                _CONNECT_RETRIES.inc()
                time.sleep(delay)
                delay = min(delay * 2, 1.0)
    raise RpcError(
        f"could not connect to federation server at {host}:{port} after "
        f"{attempts} attempts: {last}"
    )
