"""Micro-benchmarks of the wire codec and the streaming aggregator.

These guard the communication hot paths: encoding/decoding a model-sized
state dict, sparsifying to top-k records, and server-side aggregation of a
client population (which must run at O(1) peak memory in the number of
clients).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated import FedAvgServer
from repro.utils.serialization import (
    WIRE_V2,
    decode_state,
    encode_state,
    encoded_num_bytes,
    sparse_delta_state,
    sparse_topk,
)


@pytest.fixture(scope="module")
def model_state():
    rng = np.random.default_rng(0)
    state = {
        f"features.{i}.weight": rng.normal(size=(64, 64, 3, 3)).astype(np.float32)
        for i in range(4)
    }
    state["classifier.weight"] = rng.normal(size=(100, 256)).astype(np.float32)
    state["bn.num_batches_tracked"] = np.array(100, dtype=np.int64)
    return state


def test_encode_state(benchmark, model_state):
    payload = benchmark(lambda: encode_state(model_state))
    assert len(payload) == encoded_num_bytes(model_state)


def test_decode_state(benchmark, model_state):
    payload = encode_state(model_state)
    decoded = benchmark(lambda: decode_state(payload))
    assert set(decoded) == set(model_state)


def test_encoded_num_bytes(benchmark, model_state):
    size = benchmark(lambda: encoded_num_bytes(model_state))
    assert size > 0


def test_sparse_topk_extraction(benchmark, model_state):
    array = model_state["features.0.weight"]
    sparse = benchmark(lambda: sparse_topk(array, array.size // 10))
    assert sparse.nnz == array.size // 10


def test_sparse_delta_encoding(benchmark, model_state):
    rng = np.random.default_rng(1)
    base = {
        k: v + rng.normal(scale=1e-3, size=v.shape).astype(v.dtype)
        if np.issubdtype(v.dtype, np.floating) else v
        for k, v in model_state.items()
    }
    delta = benchmark(lambda: sparse_delta_state(model_state, base, ratio=0.10))
    assert encoded_num_bytes(delta) < encoded_num_bytes(model_state)


def test_encode_state_v2(benchmark, model_state):
    payload = benchmark(lambda: encode_state(model_state, WIRE_V2))
    assert len(payload) == encoded_num_bytes(model_state)


def test_decode_state_v2(benchmark, model_state):
    payload = encode_state(model_state, WIRE_V2)
    decoded = benchmark(lambda: decode_state(payload))
    assert set(decoded) == set(model_state)


def test_encode_state_v2_fp16(benchmark, model_state):
    payload = benchmark(lambda: encode_state(model_state, WIRE_V2, fp16=True))
    assert len(payload) == encoded_num_bytes(model_state, fp16=True)
    # fp16 values roughly halve the dense payload
    assert len(payload) < 0.6 * encoded_num_bytes(model_state)


def test_decode_state_v2_delta(benchmark, model_state):
    """Delta decode: sparse top-k records materialised against a base."""
    rng = np.random.default_rng(3)
    base = {
        k: v + rng.normal(scale=1e-3, size=v.shape).astype(v.dtype)
        if np.issubdtype(v.dtype, np.floating) else v
        for k, v in model_state.items()
    }
    entries = sparse_delta_state(model_state, base, ratio=0.10)
    delta_keys = {
        k for k, v in entries.items() if not isinstance(v, np.ndarray)
    }
    payload = encode_state(entries, WIRE_V2, delta_keys)
    decoded = benchmark(lambda: decode_state(payload, base=base))
    assert set(decoded) == set(model_state)


def test_delta_compression_ratio(benchmark, model_state):
    """rho=0.1 sparse deltas stay well under a quarter of the dense size."""
    rng = np.random.default_rng(4)
    base = {
        k: v + rng.normal(scale=1e-3, size=v.shape).astype(v.dtype)
        if np.issubdtype(v.dtype, np.floating) else v
        for k, v in model_state.items()
    }

    def compress():
        entries = sparse_delta_state(model_state, base, ratio=0.10)
        return encoded_num_bytes(entries)

    compressed = benchmark(compress)
    assert compressed * 4 < encoded_num_bytes(model_state)


def test_streaming_aggregation_16_clients(benchmark, model_state):
    rng = np.random.default_rng(2)
    states = [
        {k: v + np.float32(rng.normal(scale=0.01))
         if np.issubdtype(v.dtype, np.floating) else v
         for k, v in model_state.items()}
        for _ in range(16)
    ]
    weights = rng.integers(10, 100, size=16).tolist()

    def aggregate():
        return FedAvgServer().aggregate(states, weights)

    out = benchmark(aggregate)
    assert set(out) == set(model_state)
