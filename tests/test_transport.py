"""Tests for the pluggable transport: wire v2, channels, transport specs.

Covers the codec contract (property-based round trips, exact size
arithmetic, corruption and undefined-flag errors), transport specs and the
upload modes each wire version can carry, channel warmup and base
tracking, and the trainer-level guarantees: dense transports are
bit-identical across wire versions, delta uploads cut measured bytes, and
the channel's decode shortcut matches the real wire.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import build_benchmark, cifar100_like
from repro.edge import NetworkModel, jetson_cluster
from repro.federated import (
    Transport,
    create_trainer,
    create_transport,
)
from repro.utils.serialization import (
    FLAG_DELTA,
    FLAG_FP16,
    SparseTensor,
    WIRE_V1,
    WIRE_V2,
    decode_state,
    encode_state,
    encoded_num_bytes,
    peek_wire_version,
    sparse_delta_state,
    sparse_topk_state,
)

# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
float_arrays = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
    elements=st.floats(-100.0, 100.0, width=32),
)


def states(draw):
    names = draw(st.lists(
        st.text(st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1, max_size=8),
        min_size=1, max_size=4, unique=True,
    ))
    return {name: draw(float_arrays) for name in names}


state_dicts = st.composite(states)()


class TestWireV2RoundTrip:
    @given(state=state_dicts)
    @settings(max_examples=40, deadline=None)
    def test_dense_v2_round_trip_lossless(self, state):
        """v2 without fp16 round-trips bit-exactly (v1 precision)."""
        decoded = decode_state(encode_state(state, WIRE_V2))
        assert set(decoded) == set(state)
        for key in state:
            assert np.array_equal(decoded[key], state[key])
            assert decoded[key].dtype == state[key].dtype

    @given(base=float_arrays, delta=float_arrays)
    @settings(max_examples=40, deadline=None)
    def test_delta_undelta_identity_fp32(self, base, delta):
        """delta ∘ undelta is the identity at fp32: the wire adds no error."""
        if base.shape != delta.shape:
            delta = np.resize(delta, base.shape).astype(np.float32)
        payload = encode_state({"w": delta}, WIRE_V2, delta_keys={"w"})
        decoded = decode_state(payload, base={"w": base})
        assert np.array_equal(decoded["w"], base + delta)

    @given(state=state_dicts)
    @settings(max_examples=40, deadline=None)
    def test_fp16_within_half_precision(self, state):
        """fp16 payloads decode exactly to the float16 rounding of the
        original — lossy by at most half-precision quantisation."""
        decoded = decode_state(encode_state(state, WIRE_V2, fp16=True))
        for key in state:
            oracle = state[key].astype(np.float16).astype(np.float32)
            assert np.array_equal(decoded[key], oracle)
            assert decoded[key].dtype == state[key].dtype

    @given(state=state_dicts, fp16=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_encoded_num_bytes_v2_exact(self, state, fp16):
        payload = encode_state(state, WIRE_V2, fp16=fp16)
        assert len(payload) == encoded_num_bytes(state, fp16=fp16)

    def test_v2_framing_matches_v1_size(self):
        """The flags byte replaces the kind byte: dense v2 == dense v1."""
        rng = np.random.default_rng(0)
        state = {
            "w": rng.normal(size=(4, 5)).astype(np.float32),
            "steps": np.array(7, dtype=np.int64),
        }
        v1, v2 = encode_state(state), encode_state(state, WIRE_V2)
        assert len(v2) == len(v1) == encoded_num_bytes(state)
        # only the header's version byte differs
        assert v2[:4] + v2[5:] == v1[:4] + v1[5:]

    def test_sparse_delta_reconstruction(self):
        rng = np.random.default_rng(1)
        base = {"w": rng.normal(size=(6, 6)).astype(np.float32)}
        state = {"w": base["w"].copy()}
        state["w"][0, :3] += 2.0
        entries = sparse_delta_state(state, base, ratio=0.10)
        payload = encode_state(entries, WIRE_V2, delta_keys={"w"})
        decoded = decode_state(payload, base=base)
        assert np.allclose(decoded["w"], state["w"])

    def test_sparse_absolute_overwrites_base(self):
        """Sparse records without the delta flag overwrite kept positions."""
        base = {"w": np.full((2, 3), 5.0, dtype=np.float32)}
        sparse = SparseTensor(
            np.array([0, 4], np.int32), np.array([1.0, 2.0], np.float32), (2, 3)
        )
        decoded = decode_state(encode_state({"w": sparse}, WIRE_V2), base=base)
        expected = base["w"].copy()
        expected.reshape(-1)[[0, 4]] = [1.0, 2.0]
        assert np.array_equal(decoded["w"], expected)

    def test_sparse_without_base_stays_sparse(self):
        sparse = SparseTensor(
            np.array([1], np.int32), np.array([3.0], np.float32), (4,)
        )
        decoded = decode_state(
            encode_state({"w": sparse}, WIRE_V2, delta_keys={"w"})
        )
        assert isinstance(decoded["w"], SparseTensor)

    def test_dense_delta_requires_base(self):
        payload = encode_state(
            {"w": np.ones(3, np.float32)}, WIRE_V2, delta_keys={"w"}
        )
        with pytest.raises(ValueError):
            decode_state(payload)

    def test_dense_delta_shape_mismatch_rejected(self):
        """A mis-shaped base must raise, not silently numpy-broadcast."""
        payload = encode_state(
            {"w": np.ones((1, 4), np.float32)}, WIRE_V2, delta_keys={"w"}
        )
        with pytest.raises(ValueError):
            decode_state(payload, base={"w": np.zeros((3, 4), np.float32)})

    def test_integer_entries_ignore_fp16(self):
        state = {"steps": np.array([3, 4], dtype=np.int64)}
        decoded = decode_state(encode_state(state, WIRE_V2, fp16=True))
        assert np.array_equal(decoded["steps"], state["steps"])
        assert decoded["steps"].dtype == np.int64
        assert encoded_num_bytes(state, fp16=True) == encoded_num_bytes(state)


class TestWireErrors:
    def test_corrupted_magic_rejected(self):
        payload = bytearray(
            encode_state({"w": np.zeros(3, np.float32)}, WIRE_V2)
        )
        payload[:4] = b"NOPE"
        with pytest.raises(ValueError):
            decode_state(bytes(payload))

    def test_unknown_version_rejected(self):
        payload = bytearray(
            encode_state({"w": np.zeros(3, np.float32)}, WIRE_V2)
        )
        payload[4] = 9
        with pytest.raises(ValueError):
            decode_state(bytes(payload))
        assert peek_wire_version(bytes(payload)) == 9  # header itself is fine

    @given(cut=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_truncated_payload_rejected(self, cut):
        """Every truncation point — including mid-name, mid-dtype and
        mid-shape — must surface as ValueError, never TypeError."""
        payload = encode_state(
            {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}, WIRE_V2
        )
        cut = min(cut, len(payload) - 1)
        with pytest.raises(ValueError):
            decode_state(payload[:-cut])

    def test_corrupted_dtype_rejected(self):
        """Garbage in the dtype string raises ValueError in v1 and v2."""
        for version in (WIRE_V1, WIRE_V2):
            payload = bytearray(
                encode_state({"w": np.zeros(3, np.float32)}, version)
            )
            at = bytes(payload).index(b"<f4")
            payload[at:at + 3] = b"zzz"
            with pytest.raises(ValueError):
                decode_state(bytes(payload))

    def test_truncated_v1_rejected(self):
        payload = encode_state({"w": np.arange(8, dtype=np.float32)})
        with pytest.raises(ValueError):
            decode_state(payload[:-3])

    def test_header_too_short(self):
        with pytest.raises(ValueError):
            decode_state(b"FK")

    @pytest.mark.parametrize("dtype, version, fp16, flags, as_version", [
        # a float16 buffer would decode under the record's "<f4"
        (np.float32, WIRE_V2, True, None, WIRE_V1),
        (np.float32, WIRE_V1, False, 0x02, None),
        (np.float32, WIRE_V2, False, 0x80, None),
        (np.int16, WIRE_V2, False, FLAG_FP16, None),
        (np.float16, WIRE_V2, False, FLAG_FP16, None),
    ], ids=["v2-fp16-relabelled-v1", "v1-kind-byte-2", "v2-flag-0x80",
            "fp16-on-int16", "fp16-on-float16"])
    def test_undefined_flags_rejected(self, dtype, version, fp16, flags,
                                      as_version):
        """The decoder raises on any flag bit its version does not define
        and on FLAG_FP16 over a dtype the encoder never halves."""
        payload = bytearray(
            encode_state({"w": np.arange(3, dtype=dtype)}, version, fp16=fp16)
        )
        if flags is not None:
            payload[payload.index(b"w", 9) + 1] = flags  # the flags byte
        if as_version is not None:
            payload[4] = as_version
        # with a base, each payload would otherwise decode without error
        with pytest.raises(ValueError):
            decode_state(bytes(payload), base={"w": np.zeros(3, dtype)})

    def test_encoder_refuses_flags_beyond_its_version(self):
        """v1 carries neither fp16 values nor dense deltas."""
        dense = {"w": np.zeros(3, np.float32)}
        with pytest.raises(ValueError):
            encode_state(dense, WIRE_V1, fp16=True)
        with pytest.raises(ValueError):
            encode_state(dense, WIRE_V1, delta_keys={"w"})
        with pytest.raises(ValueError):
            encode_state(dense, 9)


class TestNegotiation:
    """Transport construction: specs, versions and upload modes."""

    def test_v2_negotiates_v2(self):
        transport = Transport(wire="v2", upload="sparse")
        channel = transport.channel_for(0)
        assert channel.version == WIRE_V2
        assert channel.upload_mode == "sparse"

    def test_fp16_requires_v2(self):
        with pytest.raises(ValueError):
            Transport(wire="v1", fp16=True)

    def test_spec_round_trip(self):
        for spec in ("v1:dense", "v2:delta:0.1", "v2:sparse:0.05",
                     "v2+fp16:dense", "v2+fp16:delta:0.2"):
            assert create_transport(spec).describe() == spec

    def test_bad_specs_rejected(self):
        for spec in ("v3:dense", "v2:turbo", "v2:delta:x", "v2:delta:0.1:y",
                     "v1+fp16:dense", "v1:sparse:0.1"):
            with pytest.raises(ValueError):
                create_transport(spec)

    def test_instance_passthrough(self):
        transport = Transport(wire="v2")
        assert create_transport(transport) is transport
        assert create_transport(None).describe() == "v1:dense"

    def test_instance_adopts_trainer_network(self):
        """A default-network instance must not shadow the trainer's
        bandwidth configuration (regression: Fig.6-style timings were
        silently computed at the 1 MB/s placeholder)."""
        slow = NetworkModel(bandwidth_bytes_per_second=50_000)
        adopted = create_transport(Transport(wire="v2"), network=slow)
        assert adopted.network is slow
        assert adopted.reference_link.uplink_bytes_per_second == 50_000
        # an explicitly pinned network survives adoption
        pinned = NetworkModel(bandwidth_bytes_per_second=250_000)
        kept = create_transport(
            Transport(wire="v2", network=pinned), network=slow
        )
        assert kept.network is pinned

    def test_network_rebind_rejected_after_negotiation(self):
        transport = Transport(wire="v2")
        transport.channel_for(0)
        with pytest.raises(RuntimeError):
            transport.adopt_network(NetworkModel())


class TestChannel:
    def _channel(self, spec="v2:delta:0.5", warmup=1):
        transport = create_transport(spec)
        transport.warmup_rounds = warmup
        return transport.channel_for(0)

    def _state(self, seed=0, shift=0.0):
        rng = np.random.default_rng(seed)
        return {
            "w": (rng.normal(size=(5, 4)) + shift).astype(np.float32),
            "steps": np.array(3, dtype=np.int64),
        }

    def test_dense_until_warmed_up(self):
        channel = self._channel(warmup=2)
        state = self._state()
        assert channel.effective_upload_mode(state) == "dense"
        channel.deliver(state)
        assert channel.effective_upload_mode(state) == "dense"  # 1 < warmup
        channel.deliver(state)
        assert channel.effective_upload_mode(state) == "delta"

    def test_dense_payload_decodes_to_same_object(self):
        """Bit-identity fast path: dense fp32 uploads pass through."""
        channel = self._channel("v1:dense")
        state = self._state()
        payload = channel.prepare(state)
        assert channel.decode(payload) is payload.entries

    def test_payload_size_matches_real_encoding(self):
        for spec in ("v1:dense", "v2:dense", "v2:delta:0.3", "v2:sparse:0.3",
                     "v2+fp16:dense", "v2+fp16:delta:0.3"):
            channel = self._channel(spec)
            channel.deliver(self._state(seed=1))
            payload = channel.prepare(self._state(seed=2))
            assert payload.num_bytes == len(payload.encode())

    def test_decode_shortcut_matches_real_wire(self):
        """channel.decode == the honest encode -> decode round trip."""
        for spec in ("v1:delta:0.3", "v2:delta:0.3", "v2:sparse:0.3",
                     "v2+fp16:delta:0.3"):
            channel = self._channel(spec)
            channel.deliver(self._state(seed=1))
            state = self._state(seed=2, shift=0.1)
            payload = channel.prepare(state)
            via_channel = channel.decode(payload)
            via_wire = decode_state(payload.encode(), base=channel.base)
            assert set(via_channel) == set(via_wire)
            for key in via_wire:
                assert np.array_equal(
                    np.asarray(via_channel[key]), np.asarray(via_wire[key])
                )

    def test_delta_payload_smaller_than_dense(self):
        channel = self._channel("v2:delta:0.1")
        channel.deliver(self._state(seed=1))
        state = self._state(seed=2)
        payload = channel.prepare(state)
        assert payload.delta_keys == {"w"}
        assert payload.num_bytes < payload.raw_num_bytes
        assert payload.raw_num_bytes == encoded_num_bytes(state)

    def test_delta_reconstruction_exact_when_representable(self):
        """A truly sparse change reconstructs exactly through the channel."""
        channel = self._channel("v2:delta:0.2")
        base = self._state(seed=1)
        channel.deliver(base)
        state = {k: np.array(v, copy=True) for k, v in base.items()}
        state["w"][0, :2] += 1.5  # 2 of 20 entries: within the 20% budget
        decoded = channel.decode(channel.prepare(state))
        assert np.array_equal(decoded["w"], state["w"])
        assert np.array_equal(decoded["steps"], state["steps"])

    def test_v1_delta_uses_legacy_convention(self):
        channel = self._channel("v1:delta:0.2")
        base = self._state(seed=1)
        channel.deliver(base)
        state = {k: np.array(v, copy=True) for k, v in base.items()}
        state["w"][1, 1] += 2.0
        payload = channel.prepare(state)
        assert payload.version == WIRE_V1
        decoded = channel.decode(payload)
        assert np.allclose(decoded["w"], state["w"])

    def test_shape_mismatch_falls_back_dense(self):
        channel = self._channel("v2:delta:0.2")
        channel.deliver({"w": np.zeros((2, 2), np.float32)})
        state = self._state()
        assert channel.effective_upload_mode(state) == "dense"

    def test_sparse_topk_state_helper(self):
        state = self._state()
        encoded = sparse_topk_state(state, ratio=0.25)
        assert isinstance(encoded["w"], SparseTensor)
        assert encoded["w"].nnz == 5  # 25% of 20
        assert isinstance(encoded["steps"], np.ndarray)

    def test_delta_flag_on_wire(self):
        channel = self._channel("v2:delta:0.2")
        channel.deliver(self._state(seed=1))
        payload = channel.prepare(self._state(seed=2))
        raw = payload.encode()
        # the "w" record's flags byte carries FLAG_DELTA
        name_at = raw.index(b"w", 9)
        assert raw[name_at + 1] & FLAG_DELTA


def build_trainer(method="fedavg", transport="v1:dense", rounds=3, tasks=2,
                  clients=2, network=None):
    spec = cifar100_like(train_per_class=8, test_per_class=4).with_tasks(tasks)
    from repro.federated import TrainConfig

    config = TrainConfig(batch_size=8, lr=0.02, rounds_per_task=rounds,
                         iterations_per_round=3)
    bench = build_benchmark(spec, num_clients=clients,
                            rng=np.random.default_rng(0))
    return create_trainer(method, bench, config, cluster=jetson_cluster(),
                          network=network, transport=transport)


class TestTrainerIntegration:
    def test_dense_v2_bit_identical_to_dense_v1(self):
        """The version byte alone must not change any metric."""
        with build_trainer(transport="v1:dense") as trainer:
            v1 = trainer.run()
        with build_trainer(transport="v2:dense") as trainer:
            v2 = trainer.run()
        assert np.array_equal(v1.accuracy_matrix, v2.accuracy_matrix,
                              equal_nan=True)
        for a, b in zip(v1.rounds, v2.rounds):
            assert a.upload_bytes == b.upload_bytes
            assert a.download_bytes == b.download_bytes
            assert a.sim_comm_seconds == b.sim_comm_seconds
            assert a.mean_loss == b.mean_loss

    def test_delta_uploads_cut_bytes_at_least_2x(self):
        """The acceptance bar: rho=0.1 deltas at least halve upload bytes."""
        with build_trainer("fedknow", "v1:dense") as trainer:
            dense = trainer.run()
        with build_trainer("fedknow", "v2:delta:0.1") as trainer:
            delta = trainer.run()
        assert delta.total_upload_bytes * 2 <= dense.total_upload_bytes
        assert delta.upload_compression >= 2.0
        # raw accounting still reports the dense-equivalent volume
        assert delta.total_raw_upload_bytes == pytest.approx(
            dense.total_upload_bytes, rel=0.01
        )
        # downloads stay dense: the model still converges on every task
        assert delta.accuracy_matrix.shape == dense.accuracy_matrix.shape
        assert np.isfinite(delta.accuracy_curve).all()
        assert delta.final_accuracy > 0.0

    def test_full_ratio_delta_matches_dense_global_state(self):
        """ratio=1.0 deltas are exact up to fp32 rounding of (s-b)+b."""
        with build_trainer("fedavg", "v1:dense", rounds=2, tasks=1) as trainer:
            trainer.run()
            dense_state = trainer.server.global_state
        with build_trainer("fedavg", "v2:delta:1.0", rounds=2, tasks=1) as trainer:
            trainer.run()
            delta_state = trainer.server.global_state
        for key in dense_state:
            assert np.allclose(
                dense_state[key], delta_state[key], atol=1e-5
            ), key

    def test_fp16_halves_upload_volume(self):
        with build_trainer("fedavg", "v2:dense") as trainer:
            dense = trainer.run()
        with build_trainer("fedavg", "v2+fp16:dense") as trainer:
            fp16 = trainer.run()
        assert fp16.total_upload_bytes < 0.6 * dense.total_upload_bytes
        assert fp16.upload_compression > 1.8
        assert np.isfinite(fp16.accuracy_curve).all()

    def test_sparse_uploads_reduce_bytes(self):
        with build_trainer("fedavg", "v2:sparse:0.1") as trainer:
            sparse = trainer.run()
        assert sparse.upload_compression > 2.0
        assert np.isfinite(sparse.accuracy_curve).all()

    def test_transport_recorded_in_result(self):
        with build_trainer(transport="v2:delta:0.1") as trainer:
            result = trainer.run()
        assert result.transport == "v2:delta:0.1"
        assert result.summary()["transport"] == "v2:delta:0.1"

    def test_warmup_round_is_dense(self):
        """The first round of a run has no base: raw == actual bytes."""
        with build_trainer("fedavg", "v2:delta:0.1", rounds=2, tasks=1) as t:
            result = t.run()
        first, second = result.rounds
        assert first.upload_bytes == first.raw_upload_bytes
        assert second.upload_bytes < second.raw_upload_bytes
