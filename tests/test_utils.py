"""Tests for utils: RNG handling, serialisation, weight init."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.nn import init
from repro.utils import (
    WIRE_V2,
    SparseTensor,
    decode_state,
    encode_state,
    encoded_num_bytes,
    get_rng,
    load_state,
    save_state,
    seed_all,
    sparse_delta_state,
    sparse_topk,
    spawn,
    state_num_bytes,
    topk_magnitude_indices,
)


class TestRng:
    def test_get_rng_passthrough(self, rng):
        assert get_rng(rng) is rng

    def test_seed_all_resets_default(self):
        seed_all(123)
        a = get_rng().random()
        seed_all(123)
        b = get_rng().random()
        assert a == b

    def test_spawn_children_independent(self, rng):
        children = spawn(rng, 3)
        assert len(children) == 3
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = spawn(np.random.default_rng(5), 2)
        b = spawn(np.random.default_rng(5), 2)
        assert a[0].random() == b[0].random()


class TestSerialization:
    def test_state_num_bytes(self):
        state = {"a": np.zeros(10, dtype=np.float32), "b": np.zeros(5, np.float64)}
        assert state_num_bytes(state) == 10 * 4 + 5 * 8

    def test_save_load_round_trip(self, tmp_path, rng):
        state = {"w": rng.normal(size=(3, 4)).astype(np.float32),
                 "b": rng.normal(size=4).astype(np.float32)}
        path = tmp_path / "state.npz"
        save_state(state, path)
        loaded = load_state(path)
        assert set(loaded) == {"w", "b"}
        assert np.array_equal(loaded["w"], state["w"])


class TestWireCodec:
    def mixed_state(self, rng):
        return {
            "features.0.weight": rng.normal(size=(8, 3, 3, 3)).astype(np.float32),
            "bn.num_batches_tracked": np.array(17, dtype=np.int64),
            "bn.running_mean": rng.normal(size=8).astype(np.float32),
            "delta": sparse_topk(rng.normal(size=(4, 5)).astype(np.float32), 6),
        }

    def test_round_trip_lossless(self, rng):
        state = self.mixed_state(rng)
        decoded = decode_state(encode_state(state))
        assert set(decoded) == set(state)
        for key in ("features.0.weight", "bn.running_mean"):
            assert np.array_equal(decoded[key], state[key])
            assert decoded[key].dtype == state[key].dtype
        assert decoded["bn.num_batches_tracked"] == 17
        assert decoded["bn.num_batches_tracked"].dtype == np.int64
        assert decoded["bn.num_batches_tracked"].shape == ()
        sparse = decoded["delta"]
        assert isinstance(sparse, SparseTensor)
        assert np.array_equal(sparse.indices, state["delta"].indices)
        assert np.array_equal(sparse.values, state["delta"].values)
        assert sparse.shape == (4, 5)
        assert sparse.indices.dtype == np.int32

    def test_encoded_num_bytes_is_exact(self, rng):
        for state in (
            self.mixed_state(rng),
            {},
            {"scalar": np.float64(0.5) * np.ones(())},
            {"empty": SparseTensor(np.empty(0, np.int32),
                                   np.empty(0, np.float32), (7,))},
            {"noncontig": rng.normal(size=(6, 4)).T},
        ):
            assert encoded_num_bytes(state) == len(encode_state(state))

    def test_golden_bytes(self):
        """The byte layout is pinned: SHA-256 of one v1 and one v2 payload
        (the sizes alone would not catch reordered or mis-flagged bytes)."""
        v1_state = {
            "dense": np.arange(12, dtype=np.float32).reshape(3, 4) * 0.5 - 1.25,
            "steps": np.array(7, dtype=np.int64),
            "strided": np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2].T,
            "sparse": SparseTensor(np.array([1, 5, 8], np.int32),
                                   np.array([0.5, -2.0, 3.25], np.float32),
                                   (3, 3)),
        }
        v2_state = {
            "w": np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3),
            "b": np.array([0.1, 0.2, 0.3], dtype=np.float32),
            "steps": np.array([3, 4], dtype=np.int64),
            "sparse": SparseTensor(np.array([0, 4], np.int32),
                                   np.array([1.5, -0.25], np.float32), (2, 3)),
        }
        assert not v1_state["strided"].flags.c_contiguous
        v1 = encode_state(v1_state)
        v2 = encode_state(v2_state, WIRE_V2, delta_keys={"w", "sparse"},
                          fp16=True)
        assert len(v1) == encoded_num_bytes(v1_state) == 220
        assert len(v2) == encoded_num_bytes(v2_state, fp16=True) == 128
        assert hashlib.sha256(v1).hexdigest() == (
            "5fd622962c6e2255b0943bd4ac03c3faf2d88c5b7d3ad9481bdf4bd448c7b5c4"
        )
        assert hashlib.sha256(v2).hexdigest() == (
            "d19ae5b588a139aef84ee9fe85fae0bc8d1cd988a926fe16ed6d3949f4ca56e9"
        )

    def test_sparse_record_cost(self):
        """A sparse record costs 8 bytes per nonzero beyond its framing."""
        a = {"w": sparse_topk(np.arange(100, dtype=np.float32), 10)}
        b = {"w": sparse_topk(np.arange(100, dtype=np.float32), 11)}
        assert encoded_num_bytes(b) - encoded_num_bytes(a) == 4 + 4

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_state(b"NOPE" + bytes(8))
        payload = encode_state({"w": np.zeros(3, np.float32)})
        with pytest.raises(ValueError):
            decode_state(payload + b"\x00")

    def test_sparse_dense_agree(self, rng):
        dense = rng.normal(size=(5, 5)).astype(np.float32)
        sparse = sparse_topk(dense, dense.size)
        assert np.array_equal(sparse.to_dense(), dense)

    def test_sparse_tensor_validation(self):
        with pytest.raises(ValueError):
            SparseTensor(np.zeros(2, np.int32), np.zeros(3, np.float32), (4,))

    def test_sparse_indices_bounds_checked(self):
        # corrupt payloads must fail at construction, not scatter silently
        with pytest.raises(ValueError):
            SparseTensor(np.array([-1], np.int32), np.ones(1, np.float32), (4,))
        with pytest.raises(ValueError):
            SparseTensor(np.array([4], np.int32), np.ones(1, np.float32), (4,))

    def test_topk_tie_break_is_deterministic(self):
        magnitudes = np.ones(10)
        keep = topk_magnitude_indices(magnitudes, 4)
        assert keep.tolist() == [0, 1, 2, 3]

    def test_topk_boundary_counts(self):
        magnitudes = np.array([3.0, 1.0, 2.0, 2.0, 2.0])
        keep = topk_magnitude_indices(magnitudes, 3)
        # the two lowest-position ties at magnitude 2 fill the quota
        assert keep.tolist() == [0, 2, 3]
        assert topk_magnitude_indices(magnitudes, 0).size == 0
        assert topk_magnitude_indices(magnitudes, 99).tolist() == list(range(5))

    def test_sparse_delta_round_trip(self, rng):
        base = {"w": rng.normal(size=(6, 6)).astype(np.float32),
                "steps": np.array(3, dtype=np.int64)}
        state = {"w": base["w"].copy(), "steps": np.array(5, dtype=np.int64)}
        state["w"][0, :3] += 1.0  # 3 changed entries out of 36
        delta = sparse_delta_state(state, base, ratio=0.10)
        rebuilt = {
            key: base[key] + value.to_dense()
            if isinstance(value, SparseTensor) else value
            for key, value in delta.items()
        }
        assert np.allclose(rebuilt["w"], state["w"])
        assert rebuilt["steps"] == 5

    def test_sparse_delta_ratio_validated(self, rng):
        base = {"w": np.zeros(4, np.float32)}
        with pytest.raises(ValueError):
            sparse_delta_state(base, base, ratio=0.0)


class TestInit:
    def test_kaiming_normal_std(self, rng):
        weights = init.kaiming_normal((1000, 100), rng)
        expected_std = np.sqrt(2.0) / np.sqrt(1000)
        assert weights.std() == pytest.approx(expected_std, rel=0.1)

    def test_kaiming_uniform_bound(self, rng):
        weights = init.kaiming_uniform((100, 50), rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 100)
        assert np.abs(weights).max() <= bound + 1e-6

    def test_conv_fan_in(self, rng):
        weights = init.kaiming_normal((8, 4, 3, 3), rng)
        expected_std = np.sqrt(2.0) / np.sqrt(4 * 9)
        assert weights.std() == pytest.approx(expected_std, rel=0.2)

    def test_xavier_bound(self, rng):
        weights = init.xavier_uniform((60, 40), rng)
        bound = np.sqrt(6.0 / 100)
        assert np.abs(weights).max() <= bound + 1e-6

    def test_unsupported_shape_raises(self, rng):
        with pytest.raises(ValueError):
            init.kaiming_normal((3, 3, 3), rng)

    def test_zeros_ones(self):
        assert (init.zeros((3,)) == 0).all()
        assert (init.ones((3,)) == 1).all()
        assert init.zeros((3,)).dtype == np.float32

    def test_dtype_float32(self, rng):
        assert init.kaiming_normal((4, 4), rng).dtype == np.float32
        assert init.xavier_uniform((4, 4), rng).dtype == np.float32
