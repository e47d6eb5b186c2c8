"""The pluggable transport: everything between upload and aggregation.

A :class:`Transport` owns the communication substrate of a federation: the
wire-format version of its payloads (every peer decodes both), the upload
policy (dense states, top-k deltas against the previous global state, or
top-k absolute "signature" values — v2 only), optional float16 value
payloads (v2 only), and the per-client
:class:`~repro.edge.network.NetworkLink` derived from the device profile.

Per client the transport opens a :class:`Channel` — the shared link state
both endpoints see in this simulation.  The channel

* **packs** a client's state into a :class:`WirePayload` under the
  effective upload mode (dense until a shared base state exists and the
  warmup rounds have passed);
* **prices** payloads exactly (``payload.num_bytes`` equals the length of
  the real encoded bytes — property-tested) and converts bytes to
  simulated seconds through its link;
* **decodes** payloads back to dense mappings against the channel's base
  — the decode that previously lived inside the server.  For dense fp32
  payloads this is the identity, which keeps the refactored trainer
  bit-identical to the pre-transport one.

Transports are addressed by compact specs — ``"v1:dense"``,
``"v2:delta:0.1"``, ``"v2+fp16:sparse:0.05"`` — resolved by
:func:`create_transport`; the CLI's ``--wire`` / ``--upload`` flags
compose these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..edge.device import DeviceProfile
from ..edge.network import NetworkLink, NetworkModel
from ..utils.serialization import (
    WIRE_V1,
    WIRE_V2,
    WireValue,
    decode_state,
    encode_state,
    encoded_num_bytes,
    sparse_delta_state,
    sparse_topk_state,
)

#: Upload policies a channel can carry.
UPLOAD_MODES = ("dense", "delta", "sparse")

#: Wire-format names accepted by specs and the CLI.
WIRE_NAMES = {"v1": WIRE_V1, "v2": WIRE_V2}


@dataclass
class WirePayload:
    """One client upload as it would appear on the wire.

    ``entries`` are the records to ship; ``delta_keys`` marks which carry
    offsets from the channel's base state; ``raw_num_bytes`` is what the
    same state would have cost as dense v1 — the numerator of the
    compression-ratio metric.
    """

    entries: dict[str, WireValue]
    version: int = WIRE_V1
    delta_keys: frozenset[str] = field(default_factory=frozenset)
    fp16: bool = False
    raw_num_bytes: int = 0

    @property
    def num_bytes(self) -> int:
        """Exact encoded size, computed without materialising the bytes."""
        return encoded_num_bytes(self.entries, self.fp16)

    def encode(self) -> bytes:
        """The real wire bytes (tests assert ``len == num_bytes``)."""
        return encode_state(self.entries, self.version, self.delta_keys,
                            self.fp16)


class Channel:
    """One client's link: codec settings + bandwidth + base state."""

    def __init__(
        self,
        client_id: int,
        version: int,
        upload_mode: str,
        ratio: float,
        fp16: bool,
        link: NetworkLink,
        warmup_rounds: int = 1,
    ):
        if upload_mode not in UPLOAD_MODES:
            raise ValueError(
                f"unknown upload mode {upload_mode!r}; known: {UPLOAD_MODES}"
            )
        self.client_id = client_id
        self.version = version
        self.upload_mode = upload_mode
        self.ratio = ratio
        self.fp16 = fp16 and version >= WIRE_V2
        self.link = link
        self.warmup_rounds = warmup_rounds
        # Last global state delivered over this link (the delta base):
        # a dict, or a resolvable engine StateHandle (see ``base`` below).
        self._base = None
        self.deliveries = 0

    @property
    def base(self) -> dict[str, np.ndarray] | None:
        """Last global state delivered over this link (the delta base).

        The trainer delivers the base as its engine's
        :class:`~repro.federated.engine.StateHandle`; resolving here means
        a channel pickled to a socket worker ships a file token instead of
        the dense state, and each worker decodes the base once per
        broadcast.
        """
        base = self._base
        resolve = getattr(base, "resolve", None)
        return base if resolve is None else resolve()

    @base.setter
    def base(self, value) -> None:
        self._base = value

    # ------------------------------------------------------------------
    # upload path
    # ------------------------------------------------------------------
    def effective_upload_mode(self, state: Mapping[str, np.ndarray]) -> str:
        """The mode this upload actually uses (dense until warmed up)."""
        if self.upload_mode == "dense":
            return "dense"
        if self.base is None or self.deliveries < self.warmup_rounds:
            return "dense"
        # compressed modes need the base to cover every uploaded entry
        for name, value in state.items():
            known = self.base.get(name)
            if known is None or known.shape != np.asarray(value).shape:
                return "dense"
        return self.upload_mode

    def prepare(self, state: Mapping[str, np.ndarray]) -> WirePayload:
        """Pack ``state`` for the wire under the channel's upload policy."""
        raw = encoded_num_bytes(state)
        mode = self.effective_upload_mode(state)
        if mode == "dense":
            return WirePayload(
                dict(state), self.version, frozenset(), self.fp16, raw
            )
        if mode == "delta":
            entries = sparse_delta_state(state, self.base, self.ratio)
            delta_keys = frozenset(
                name for name, value in entries.items()
                if not isinstance(value, np.ndarray)
            )
            return WirePayload(entries, self.version, delta_keys, self.fp16, raw)
        entries = sparse_topk_state(state, self.ratio)
        return WirePayload(entries, self.version, frozenset(), self.fp16, raw)

    def decode(self, payload: WirePayload) -> dict[str, WireValue]:
        """Materialise an upload exactly as the receiving end would.

        Dense fp32 payloads pass through untouched (bit-identity with the
        pre-transport trainer); anything lossy or base-relative takes the
        honest path through the real codec against the channel's base.
        """
        if not payload.fp16 and not payload.delta_keys and all(
            isinstance(value, np.ndarray) for value in payload.entries.values()
        ):
            return payload.entries
        return decode_state(payload.encode(), base=self.base)

    # ------------------------------------------------------------------
    # download path
    # ------------------------------------------------------------------
    def download_num_bytes(self, global_state: Mapping[str, np.ndarray]) -> int:
        """Wire size of a global-state broadcast (dense; downloads stay
        fp32 — the uplink is the constrained leg at the edge)."""
        return encoded_num_bytes(global_state)

    def deliver(
        self,
        global_state: Mapping[str, np.ndarray],
        base=None,
    ) -> None:
        """Record a broadcast: advances warmup and snapshots the delta base.

        ``base`` optionally supplies an already-copied snapshot shared
        across every receiver's channel (one copy per broadcast instead of
        one per client) — either a dict or a resolvable engine
        ``StateHandle``; decode paths never mutate the base, so sharing is
        safe.  Without it the channel snapshots the state itself.
        """
        if self.upload_mode != "dense":
            if base is None:
                base = {
                    key: np.array(value, copy=True)
                    for key, value in global_state.items()
                }
            self._base = base
        self.deliveries += 1

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def upload_seconds(self, num_bytes: float) -> float:
        return self.link.upload_seconds(num_bytes)

    def download_seconds(self, num_bytes: float) -> float:
        return self.link.download_seconds(num_bytes)

    def round_trip_seconds(self, up_bytes: float, down_bytes: float) -> float:
        return self.link.round_trip_seconds(up_bytes, down_bytes)


class Transport:
    """Factory and registry of per-client channels."""

    def __init__(
        self,
        wire: str = "v1",
        upload: str = "dense",
        ratio: float = 0.1,
        warmup_rounds: int = 1,
        fp16: bool = False,
        network: NetworkModel | None = None,
    ):
        if wire not in WIRE_NAMES:
            raise ValueError(
                f"unknown wire format {wire!r}; known: {sorted(WIRE_NAMES)}"
            )
        if upload not in UPLOAD_MODES:
            raise ValueError(
                f"unknown upload mode {upload!r}; known: {UPLOAD_MODES}"
            )
        if upload != "dense" and not 0.0 < ratio <= 1.0:
            raise ValueError(f"upload ratio must be in (0, 1], got {ratio}")
        if fp16 and wire == "v1":
            raise ValueError("fp16 payloads need wire v2 (--wire v2)")
        if upload == "sparse" and wire == "v1":
            # v1 sparse records are deltas: absolute values would be
            # added onto the base instead of overwriting it
            raise ValueError("sparse uploads need wire v2 (--wire v2)")
        if warmup_rounds < 0:
            raise ValueError(f"warmup_rounds must be >= 0, got {warmup_rounds}")
        self.wire = wire
        self.upload = upload
        self.ratio = ratio
        self.warmup_rounds = warmup_rounds
        self.fp16 = fp16
        self.network = network or NetworkModel()
        #: Whether the caller pinned a network explicitly (an explicit
        #: network survives trainer adoption; the default one is replaced
        #: by the trainer's network model).
        self._network_explicit = network is not None
        self._channels: dict[int, Channel] = {}

    def adopt_network(self, network: NetworkModel | None) -> None:
        """Bind the trainer's network model to this transport.

        Called before any channel opens.  A network the transport was
        explicitly constructed with wins over the trainer's; the default
        symmetric 1 MB/s placeholder does not.
        """
        if network is None or self._network_explicit:
            return
        if self._channels:
            raise RuntimeError(
                "cannot rebind the network after channels were opened"
            )
        self.network = network

    def channel_for(
        self, client_id: int, device: DeviceProfile | None = None
    ) -> Channel:
        """The (cached) channel of one client."""
        channel = self._channels.get(client_id)
        if channel is None:
            channel = Channel(
                client_id=client_id,
                version=WIRE_NAMES[self.wire],
                upload_mode=self.upload,
                ratio=self.ratio,
                fp16=self.fp16,
                link=self.network.link_for_device(device),
                warmup_rounds=self.warmup_rounds,
            )
            self._channels[client_id] = channel
        return channel

    @property
    def reference_link(self) -> NetworkLink:
        """The unscaled link (round-level accounting uses this)."""
        return self.network.link_for_device(None)

    def broadcast_base(
        self, global_state: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray] | None:
        """One shared base snapshot for a global-state broadcast.

        Returns ``None`` when the upload mode is dense (no channel tracks
        a base); otherwise one copied snapshot every receiver's
        :meth:`Channel.deliver` can share — decode paths never mutate a
        base, so a single copy per broadcast suffices.
        """
        if self.upload == "dense":
            return None
        return {
            key: np.array(value, copy=True)
            for key, value in global_state.items()
        }

    def describe(self) -> str:
        """Canonical spec string (stable across runs; used in cache keys)."""
        suffix = "" if self.upload == "dense" else f":{self.ratio:g}"
        fp = "+fp16" if self.fp16 else ""
        return f"{self.wire}{fp}:{self.upload}{suffix}"


def create_transport(
    transport: str | Transport | None,
    network: NetworkModel | None = None,
) -> Transport:
    """Resolve a transport from a spec string, or pass an instance through.

    Specs read ``"<wire>[+fp16]:<upload>[:<ratio>]"`` — e.g. ``"v1:dense"``
    (the default), ``"v2:delta:0.1"``, ``"v2+fp16:sparse:0.05"``.

    An instance passed through adopts ``network`` unless it was built with
    an explicit network of its own — otherwise a trainer's bandwidth
    configuration would silently fall back to the 1 MB/s default.
    """
    if isinstance(transport, Transport):
        transport.adopt_network(network)
        return transport
    if transport is None:
        return Transport(network=network)
    parts = transport.split(":")
    wire = parts[0]
    fp16 = wire.endswith("+fp16")
    if fp16:
        wire = wire[: -len("+fp16")]
    upload = parts[1] if len(parts) > 1 and parts[1] else "dense"
    ratio = 0.1
    if len(parts) > 2:
        try:
            ratio = float(parts[2])
        except ValueError:
            raise ValueError(
                f"transport spec {transport!r} has a non-numeric ratio "
                f"{parts[2]!r}"
            ) from None
    if len(parts) > 3:
        raise ValueError(f"malformed transport spec {transport!r}")
    return Transport(
        wire=wire, upload=upload, ratio=ratio, fp16=fp16, network=network
    )
