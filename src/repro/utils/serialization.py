"""State-dict serialisation, the sparse wire codec, and size accounting.

Wire format (little-endian)
---------------------------
A payload is a fixed header followed by one record per state entry::

    header:  magic ``b"FKSC"`` | version u8 | entry count u32
    record:  name length u16 | name (utf-8)
             flags u8
             dtype length u8 | dtype string (numpy ``dtype.str``, e.g. ``<f4``)
             ndim u8 | shape dims (u32 each)
             dense  -> C-order array values
             sparse -> nnz u32 | indices (int32) | values

Dense records carry full arrays (model state dicts, BN buffers).  Sparse
records carry ``{indices: int32, values, shape}`` triples — the
top-``rho`` signature weights of a
:class:`~repro.core.knowledge.TaskKnowledge` or a top-k state delta.  Flat
positions are int32 on the wire, so no array may exceed ``2**31 - 1``
elements (:func:`sparse_topk` and the knowledge extractor guard this).

Both versions share this framing byte for byte; the version byte says
which record flags a payload may set:

====================  ====================  =========
flag                  v1                    v2
====================  ====================  =========
``FLAG_SPARSE`` 0x01  allowed               allowed
``FLAG_DELTA``  0x02  implied by SPARSE     allowed
``FLAG_FP16``   0x04  rejected              allowed
====================  ====================  =========

* ``FLAG_SPARSE`` — the record is an ``indices + values`` pair;
* ``FLAG_DELTA``  — the record's values are *offsets from a base state*
  both peers share (the previous global model); the decoder reconstructs
  ``base + value``.  Without it a sparse record carries absolute values
  that overwrite the base at the kept positions.  v1 has no delta bit:
  every v1 sparse record is a delta (the legacy convention), so v1
  carries neither absolute sparse records nor dense deltas;
* ``FLAG_FP16``   — floating-point values wider than 2 bytes travel as
  float16 and are upcast to the recorded dtype on decode (the one lossy
  option; with it clear a payload round-trips bit-exactly).

The decoder rejects any bit outside its version's set, and ``FLAG_FP16``
on a dtype the encoder never halves.

:func:`encoded_num_bytes` computes the exact payload size without
materialising it (tests assert equality with the real encoder) and is the
canonical measure of message size used by the communication-cost
experiments (Figures 5 and 6).  :func:`state_num_bytes` remains the raw
sum-of-array-bytes measure for in-memory accounting.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Union

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace

WIRE_MAGIC = b"FKSC"
WIRE_V1 = 1
WIRE_V2 = 2

_ENCODED_BYTES = _obs_metrics.METRICS.counter("codec.encoded_bytes")
_DECODED_BYTES = _obs_metrics.METRICS.counter("codec.decoded_bytes")

#: Per-record flags.
FLAG_SPARSE = 0x01
FLAG_DELTA = 0x02
FLAG_FP16 = 0x04

#: The record flags each wire version defines.
_VERSION_FLAGS = {
    WIRE_V1: FLAG_SPARSE,
    WIRE_V2: FLAG_SPARSE | FLAG_DELTA | FLAG_FP16,
}

_HEADER = struct.Struct("<4sBI")
_MAX_INDEX = np.iinfo(np.int32).max


@dataclass
class SparseTensor:
    """A sparse view of a dense array: flat int32 positions plus values."""

    indices: np.ndarray  # flat C-order positions, int32
    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int32)
        self.values = np.ascontiguousarray(self.values)
        self.shape = tuple(int(dim) for dim in self.shape)
        if self.indices.ndim != 1 or self.values.ndim != 1:
            raise ValueError("indices and values must be one-dimensional")
        if self.indices.size != self.values.size:
            raise ValueError(
                f"{self.indices.size} indices but {self.values.size} values"
            )
        size = int(np.prod(self.shape))
        if size > _MAX_INDEX + 1:
            raise ValueError(
                f"shape {self.shape} exceeds int32-addressable elements"
            )
        if self.indices.size and not (
            0 <= int(self.indices.min()) and int(self.indices.max()) < size
        ):
            # guards against corrupt payloads: a negative index would
            # otherwise scatter silently via Python wrap-around indexing
            raise ValueError(
                f"sparse indices out of range for {size} elements"
            )

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def to_dense(self) -> np.ndarray:
        """Materialise the dense array (zeros off-support)."""
        flat = np.zeros(int(np.prod(self.shape)), dtype=self.values.dtype)
        flat[self.indices] = self.values
        return flat.reshape(self.shape)


#: A state entry on the wire: a dense array or a sparse record.
WireValue = Union[np.ndarray, SparseTensor]


def state_num_bytes(state: Mapping[str, np.ndarray]) -> int:
    """Raw payload size, in bytes, of a ``name -> array`` state mapping."""
    return int(sum(np.asarray(v).nbytes for v in state.values()))


# ----------------------------------------------------------------------
# top-k magnitude selection (shared by the codec and the knowledge extractor)
# ----------------------------------------------------------------------
def topk_magnitude_indices(magnitudes: np.ndarray, count: int) -> np.ndarray:
    """Positions of the ``count`` largest magnitudes, deterministically.

    Tie-aware: when magnitudes tie at the selection boundary, the lowest flat
    positions win, so exactly ``count`` positions are returned regardless of
    duplicated values.  Returned sorted ascending.
    """
    magnitudes = np.asarray(magnitudes).ravel()
    d = magnitudes.size
    if count >= d:
        return np.arange(d, dtype=np.int64)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    boundary = np.partition(magnitudes, d - count)[d - count]
    above = np.flatnonzero(magnitudes > boundary)
    need = count - above.size
    ties = np.flatnonzero(magnitudes == boundary)[:need]
    return np.sort(np.concatenate([above, ties]))


def sparse_topk(array: np.ndarray, count: int) -> SparseTensor:
    """Sparsify ``array`` to its ``count`` largest-magnitude entries."""
    array = np.asarray(array)
    if array.size > _MAX_INDEX + 1:
        raise ValueError(
            f"array with {array.size} elements overflows int32 positions"
        )
    flat = array.ravel()
    keep = topk_magnitude_indices(np.abs(flat), count).astype(np.int32)
    return SparseTensor(keep, flat[keep].copy(), array.shape)


def sparse_delta_state(
    state: Mapping[str, np.ndarray],
    base: Mapping[str, np.ndarray],
    ratio: float,
) -> dict[str, WireValue]:
    """Encode ``state`` as top-``ratio`` sparse deltas from ``base``.

    Float entries become :class:`SparseTensor` deltas keeping the largest
    ``round(ratio * size)`` magnitude differences; non-float entries (integer
    BN counters and the like) pass through dense.  The receiver reconstructs
    ``base[key] + delta`` — exact whenever the true delta has at most the
    retained number of nonzeros.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    encoded: dict[str, WireValue] = {}
    for name, value in state.items():
        value = np.asarray(value)
        if not np.issubdtype(value.dtype, np.floating):
            encoded[name] = value.copy()
            continue
        delta = value - np.asarray(base[name])
        count = max(1, int(round(ratio * delta.size)))
        encoded[name] = sparse_topk(delta, count)
    return encoded


def sparse_topk_state(
    state: Mapping[str, np.ndarray], ratio: float
) -> dict[str, WireValue]:
    """Encode ``state`` keeping its top-``ratio`` absolute magnitudes.

    Float entries become :class:`SparseTensor` records of their largest
    ``round(ratio * size)`` magnitude *values* (not deltas); non-float
    entries pass through dense.  The v2 receiver overwrites a shared base
    state at the kept positions — the signature-weight upload shape of the
    paper's knowledge transfer.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    encoded: dict[str, WireValue] = {}
    for name, value in state.items():
        value = np.asarray(value)
        if not np.issubdtype(value.dtype, np.floating):
            encoded[name] = value.copy()
            continue
        count = max(1, int(round(ratio * value.size)))
        encoded[name] = sparse_topk(value, count)
    return encoded


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
def _version_flags(version: int) -> int:
    """The record flag bits ``version`` defines; unknown versions raise."""
    try:
        return _VERSION_FLAGS[version]
    except KeyError:
        raise ValueError(
            f"unsupported wire version {version}; "
            f"supported: {tuple(_VERSION_FLAGS)}"
        ) from None


def _halves(dtype: np.dtype) -> bool:
    """Whether ``FLAG_FP16`` applies: floating values wider than 2 bytes."""
    return np.issubdtype(dtype, np.floating) and dtype.itemsize > 2


def _record_meta(name: str, value: WireValue) -> tuple[bytes, np.dtype, tuple[int, ...]]:
    raw_name = name.encode("utf-8")
    if len(raw_name) > 0xFFFF:
        raise ValueError(f"entry name too long for the wire format: {name!r}")
    dtype = value.values.dtype if isinstance(value, SparseTensor) else value.dtype
    shape = value.shape
    if len(shape) > 0xFF:
        raise ValueError(f"too many dimensions for the wire format: {shape}")
    return raw_name, dtype, shape


def encode_state(
    state: Mapping[str, WireValue],
    version: int = WIRE_V1,
    delta_keys: AbstractSet[str] = frozenset(),
    fp16: bool = False,
) -> bytes:
    """Pack a state mapping (dense arrays and/or sparse records) to bytes.

    ``delta_keys`` names the entries whose values are offsets from a base
    state both peers share; ``fp16`` ships floating values as float16 (the
    recorded dtype stays the original, so the decoder upcasts).  A record
    needing a flag ``version`` does not define raises :class:`ValueError`;
    v1 sparse records are deltas whether named or not.
    """
    with _obs_trace.TRACER.span("encode", wire=version, entries=len(state),
                                fp16=fp16) as span:
        payload = _encode_state(state, version, delta_keys, fp16)
        span.attrs["bytes"] = len(payload)
    _ENCODED_BYTES.inc(len(payload))
    return payload


def _encode_state(
    state: Mapping[str, WireValue],
    version: int,
    delta_keys: AbstractSet[str],
    fp16: bool,
) -> bytes:
    allowed = _version_flags(version)
    chunks = [_HEADER.pack(WIRE_MAGIC, version, len(state))]
    for name, value in state.items():
        sparse = isinstance(value, SparseTensor)
        if not sparse:
            # asarray keeps 0-d arrays 0-d, as encoded_num_bytes counts
            # them; tobytes() writes C order whatever the layout
            value = np.asarray(value)
        raw_name, dtype, shape = _record_meta(name, value)
        flags = FLAG_SPARSE if sparse else 0
        if name in delta_keys and not (sparse and version == WIRE_V1):
            flags |= FLAG_DELTA
        if fp16 and _halves(dtype):
            flags |= FLAG_FP16
        if flags & ~allowed:
            raise ValueError(
                f"entry {name!r} needs record flags {flags:#04x}; "
                f"wire v{version} defines {allowed:#04x}"
            )
        raw_dtype = dtype.str.encode("ascii")
        chunks.append(struct.pack("<H", len(raw_name)))
        chunks.append(raw_name)
        chunks.append(struct.pack("<BB", flags, len(raw_dtype)))
        chunks.append(raw_dtype)
        chunks.append(struct.pack(f"<B{len(shape)}I", len(shape), *shape))
        if sparse:
            chunks.append(struct.pack("<I", value.nnz))
            chunks.append(value.indices.tobytes())
            value = value.values
        if flags & FLAG_FP16:
            value = value.astype(np.float16)
        chunks.append(value.tobytes())
    return b"".join(chunks)


def encoded_num_bytes(state: Mapping[str, WireValue], fp16: bool = False) -> int:
    """Exact :func:`encode_state` payload size, computed without encoding.

    One answer for every version: the delta flag changes what a record
    means, not its size.
    """
    total = _HEADER.size
    for name, value in state.items():
        sparse = isinstance(value, SparseTensor)
        if not sparse:
            value = np.asarray(value)
        raw_name, dtype, shape = _record_meta(name, value)
        total += 2 + len(raw_name) + 2 + len(dtype.str) + 1 + 4 * len(shape)
        itemsize = 2 if fp16 and _halves(dtype) else dtype.itemsize
        if sparse:
            total += 4 + value.nnz * (4 + itemsize)
        else:
            total += value.size * itemsize
    return int(total)


def peek_wire_version(payload: bytes | bytearray | memoryview) -> int:
    """Read and validate a payload's header; returns its version byte."""
    view = memoryview(payload)
    try:
        magic, version, _ = _HEADER.unpack_from(view, 0)
    except struct.error:
        raise ValueError(
            f"payload too short for a wire header ({len(view)} bytes)"
        ) from None
    if magic != WIRE_MAGIC:
        raise ValueError(f"bad wire magic {magic!r}")
    return int(version)


def _parse_records(
    payload: bytes | bytearray | memoryview,
) -> tuple[int, list[tuple]]:
    """Walk a payload's record framing: the one parser of every version.

    Returns the version and ``(name, flags, dtype, shape, stored,
    indices)`` tuples — ``stored`` views the raw wire values (float16
    under ``FLAG_FP16``), ``indices`` is ``None`` for dense records.  A
    v1 sparse record comes back with ``FLAG_DELTA`` set.  Framing damage
    (truncation, corrupted dtype strings, trailing bytes), flag bits the
    version does not define and ``FLAG_FP16`` on a dtype the encoder
    never halves all surface as :class:`ValueError`.
    """
    version = peek_wire_version(payload)
    allowed = _version_flags(version)
    view = memoryview(payload)
    _, _, count = _HEADER.unpack_from(view, 0)
    offset = _HEADER.size
    records = []
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", view, offset)
            offset += 2
            name = bytes(view[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            flags, dtype_len = struct.unpack_from("<BB", view, offset)
            offset += 2
            dtype = np.dtype(bytes(view[offset:offset + dtype_len]).decode("ascii"))
            offset += dtype_len
            if flags & ~allowed:
                raise ValueError(
                    f"entry {name!r} sets flags {flags:#04x}; "
                    f"wire v{version} defines {allowed:#04x}"
                )
            if flags & FLAG_FP16 and not _halves(dtype):
                raise ValueError(f"entry {name!r} sets FLAG_FP16 on {dtype}")
            if version == WIRE_V1 and flags & FLAG_SPARSE:
                flags |= FLAG_DELTA  # v1 sparse records are deltas
            (ndim,) = struct.unpack_from("<B", view, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", view, offset)
            offset += 4 * ndim
            wire_dtype = np.dtype(np.float16) if flags & FLAG_FP16 else dtype
            indices = None
            if flags & FLAG_SPARSE:
                (nnz,) = struct.unpack_from("<I", view, offset)
                offset += 4
                indices = np.frombuffer(view, np.int32, nnz, offset).copy()
                offset += nnz * 4
                stored = np.frombuffer(view, wire_dtype, nnz, offset)
                offset += nnz * wire_dtype.itemsize
            else:
                size = int(np.prod(shape)) if shape else 1
                stored = np.frombuffer(view, wire_dtype, size, offset)
                offset += size * wire_dtype.itemsize
            records.append((name, flags, dtype, shape, stored, indices))
    except (struct.error, ValueError, TypeError) as exc:
        # TypeError covers np.dtype() choking on a corrupted dtype string
        raise ValueError(f"truncated or corrupt payload: {exc}") from None
    if offset != len(view):
        raise ValueError(
            f"trailing bytes in payload: read {offset} of {len(view)}"
        )
    return version, records


def _reconstruct(
    name: str,
    flags: int,
    dtype: np.dtype,
    shape: tuple[int, ...],
    stored: np.ndarray,
    indices: np.ndarray | None,
    base: Mapping[str, np.ndarray] | None,
) -> WireValue:
    """Materialise one parsed record against an optional base state."""
    values = stored.astype(dtype)  # copies out of the payload, upcasts fp16
    known = None if base is None else base.get(name)
    if flags & FLAG_SPARSE:
        record = SparseTensor(indices, values, shape)
        if known is None:
            # no base on this end: hand the sparse record through (the
            # server materialises it against its own global state)
            return record
        rebuilt = np.array(known, copy=True)
        if rebuilt.shape != record.shape:
            raise ValueError(
                f"sparse entry {name!r} has shape {record.shape}, "
                f"base has {rebuilt.shape}"
            )
        flat = rebuilt.reshape(-1)
        values = values.astype(rebuilt.dtype, copy=False)
        if flags & FLAG_DELTA:
            flat[record.indices] += values
        else:
            flat[record.indices] = values
        return rebuilt
    dense = values.reshape(shape)
    if not flags & FLAG_DELTA:
        return dense
    if known is None:
        raise ValueError(f"delta entry {name!r} requires the shared base state")
    known = np.asarray(known)
    if known.shape != dense.shape:
        raise ValueError(
            f"delta entry {name!r} has shape {dense.shape}, "
            f"base has {known.shape}"
        )
    return (known + dense).astype(dtype, copy=False)


def decode_state(
    payload: bytes | bytearray | memoryview,
    base: Mapping[str, np.ndarray] | None = None,
) -> dict[str, WireValue]:
    """Unpack a payload of either version, reconstructing against ``base``.

    Dense records decode to arrays; dense deltas require ``base`` and
    return ``base + delta``.  Sparse records are materialised against
    ``base`` when it holds their entry (``FLAG_DELTA`` adds onto the base,
    absolute records overwrite it at the kept positions); otherwise they
    stay :class:`SparseTensor` records.
    """
    _DECODED_BYTES.inc(len(payload))
    with _obs_trace.TRACER.span("decode", bytes=len(payload)) as span:
        version, records = _parse_records(payload)
        span.attrs["wire"] = version
        # reconstruction runs after framing validation so its own errors
        # (e.g. a delta entry without a base) keep their meaning
        return {
            record[0]: _reconstruct(*record, base) for record in records
        }


# ----------------------------------------------------------------------
# on-disk persistence
# ----------------------------------------------------------------------
def save_state(state: Mapping[str, np.ndarray], path: str | os.PathLike) -> None:
    """Persist a state dict as a compressed ``.npz`` archive."""
    np.savez_compressed(path, **{k: np.asarray(v) for k, v in state.items()})


def load_state(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Load a state dict previously written by :func:`save_state`."""
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}
