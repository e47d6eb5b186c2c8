"""Shared utilities: deterministic RNG handling, serialisation, wire codec."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".rng": ("get_rng", "seed_all", "spawn"),
    ".serialization": (
        "FLAG_DELTA", "FLAG_FP16", "FLAG_SPARSE", "WIRE_V1", "WIRE_V2",
        "SparseTensor", "decode_state", "encode_state", "encoded_num_bytes",
        "load_state", "peek_wire_version", "save_state", "sparse_delta_state",
        "sparse_topk", "sparse_topk_state", "state_num_bytes",
        "topk_magnitude_indices",
    ),
})

__all__ = [
    "FLAG_DELTA",
    "FLAG_FP16",
    "FLAG_SPARSE",
    "SparseTensor",
    "WIRE_V1",
    "WIRE_V2",
    "decode_state",
    "encode_state",
    "encoded_num_bytes",
    "get_rng",
    "load_state",
    "peek_wire_version",
    "save_state",
    "seed_all",
    "sparse_delta_state",
    "sparse_topk",
    "sparse_topk_state",
    "spawn",
    "state_num_bytes",
    "topk_magnitude_indices",
]
