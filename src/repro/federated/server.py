"""Central servers: FedAvg aggregation and the FLCN rehearsal server.

The server aggregates whatever keys the clients upload (FedRep clients upload
only representation-layer keys, so personal heads are untouched), weighted by
client sample counts, following McMahan et al.'s FedAvg.  Aggregation runs as
a streaming weighted sum — one client state is resident at a time, so peak
memory does not scale with the number of clients — and accepts three upload
forms interchangeably: plain ``name -> array`` mappings, mappings containing
:class:`~repro.utils.serialization.SparseTensor` records (interpreted as
top-k deltas from the current global state), and raw payload bytes produced
by :func:`~repro.utils.serialization.encode_state` (decoded against the
global state, so v2 flags keep their meaning).

The streaming math lives in :class:`StreamingAccumulator`.  A round of up
to :data:`MERGE_SEGMENTS` uploads is one sequential sum; a larger round
accumulates fixed contiguous segments and folds them left to right, which
keeps the bits such rounds have always had.  Either way the final state is
installed through :meth:`FedAvgServer.install_aggregate`, the hook
subclasses use for post-aggregation behaviour (FLCN's rehearsal
fine-tuning).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..models.base import ImageClassifier
from ..nn import functional as F
from ..nn.optim import SGD
from ..nn.tensor import Tensor
from ..utils.rng import get_rng
from ..utils.serialization import SparseTensor, WireValue, decode_state
from .protocol import ClientUpdate, ClientUpload
from .slices import shard_slices

#: Canonical merge granularity of the aggregation reduction tree.  A round's
#: clients are split (in report order) into at most this many contiguous
#: segments; each segment accumulates sequentially and segments are folded
#: left-to-right.  With up to ``MERGE_SEGMENTS`` clients every segment holds
#: one client and the fold *is* the plain sequential sum.  Larger rounds keep
#: the tree because it fixes their float additions: a sequential sum would
#: round them differently (``tests/test_federated.py`` pins the order).
MERGE_SEGMENTS = 64


class StreamingAccumulator:
    """O(1)-peak-memory weighted sum over client uploads.

    The streaming core of :meth:`FedAvgServer.aggregate`: one decoded client
    state is resident at a time, float keys accumulate into float64 buffers,
    integer/bool keys (e.g. BN step counters) keep the first contributing
    client's value (averaging them through a float->int cast truncates).
    ``base`` supplies the global state sparse uploads are deltas against.
    """

    def __init__(self, base: Mapping[str, np.ndarray] | None = None):
        self.base = base
        self.key_order: list[str] | None = None
        self.key_set: set[str] = set()
        self.accum: dict[str, np.ndarray] = {}  # float keys: float64 sums
        self.fixed: dict[str, np.ndarray] = {}  # integer/bool keys
        self.dtypes: dict[str, np.dtype] = {}
        self.count = 0

    def materialise(self, key: str, value: WireValue) -> np.ndarray:
        """Densify one uploaded entry; sparse records are deltas from base."""
        if not isinstance(value, SparseTensor):
            return np.asarray(value)
        dense = value.to_dense()
        if self.base is not None and key in self.base:
            base = np.asarray(self.base[key])
            if base.shape != dense.shape:
                raise ValueError(
                    f"sparse upload for {key!r} has shape {dense.shape}, "
                    f"global state has {base.shape}"
                )
            dense = dense + base
        return dense

    def add(self, state: ClientUpload, coeff: float) -> None:
        """Fold one client's upload in at weight ``coeff``."""
        if isinstance(state, (bytes, bytearray, memoryview)):
            state = decode_state(state, base=self.base)
        if self.key_order is None:
            self.key_order = list(state.keys())
            self.key_set = set(self.key_order)
        elif set(state.keys()) != self.key_set:
            raise ValueError("clients uploaded inconsistent state keys")
        for key in self.key_order:
            value = self.materialise(key, state[key])
            if key not in self.dtypes:
                self.dtypes[key] = value.dtype
                if not np.issubdtype(value.dtype, np.floating):
                    self.fixed[key] = np.array(value, copy=True)
                    continue
                self.accum[key] = np.zeros(value.shape, dtype=np.float64)
            if key in self.fixed:
                continue
            self.accum[key] += coeff * np.asarray(value, dtype=np.float64)
        self.count += 1

    def fold_in(self, other: "StreamingAccumulator") -> None:
        """Fold another accumulator's partial sums into this one.

        One node of the merge tree: ``self.accum[key] += other.accum[key]``
        for every float key.  Integer/bool keys keep this accumulator's
        values — folding left from the round's first segment, those are the
        globally first client's, matching the sequential reference.
        """
        if other.key_order is None or other.count == 0:
            raise ValueError("cannot fold in an empty accumulator")
        if self.key_order is None:
            raise ValueError(
                "cannot fold into an empty accumulator; fold left from the "
                "first segment"
            )
        if other.key_set != self.key_set:
            raise ValueError("segments accumulated inconsistent state keys")
        for key in self.key_order:
            if key in self.fixed:
                continue
            self.accum[key] += other.accum[key]
        self.count += other.count

    def finalize(self) -> dict[str, np.ndarray]:
        """The accumulated state, cast back to the uploaded dtypes."""
        if self.key_order is None:
            raise ValueError("no client states were accumulated")
        return {
            key: self.fixed[key]
            if key in self.fixed
            else self.accum[key].astype(self.dtypes[key])
            for key in self.key_order
        }


class FedAvgServer:
    """Sample-count-weighted federated averaging."""

    def __init__(self):
        self.global_state: dict[str, np.ndarray] | None = None
        self.round_index = 0

    def aggregate(
        self,
        states: Sequence[ClientUpload],
        weights: Sequence[float],
    ) -> dict[str, np.ndarray]:
        """Aggregate client states; returns the new global state."""
        if not states:
            raise ValueError(
                "no client states to aggregate (zero reported clients)"
            )
        if len(states) != len(weights):
            raise ValueError(
                f"got {len(states)} states but {len(weights)} weights"
            )
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("aggregation weights must sum to a positive value")
        if len(states) <= MERGE_SEGMENTS:
            # every merge segment holds one client: the fold degenerates to
            # the plain sequential streaming sum (one decoded client state
            # resident at a time)
            accumulator = StreamingAccumulator(base=self.global_state)
            for state, weight in zip(states, weights):
                accumulator.add(state, weight / total)
            return self.install_aggregate(accumulator.finalize())
        # large round: accumulate the canonical merge segments one at a time
        # and fold each into the running total as it completes — still O(1)
        # peak memory (one segment + the fold)
        fold: StreamingAccumulator | None = None
        for segment in shard_slices(len(states), MERGE_SEGMENTS):
            accumulator = StreamingAccumulator(base=self.global_state)
            for index in range(segment.start, segment.stop):
                accumulator.add(states[index], weights[index] / total)
            if fold is None:
                fold = accumulator
            else:
                fold.fold_in(accumulator)
        return self.install_aggregate(fold.finalize())

    def install_aggregate(
        self, aggregated: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Adopt an assembled aggregate as the new global state.

        Every aggregation lands here, so subclasses hook post-aggregation
        behaviour (FLCN's rehearsal fine-tuning) in one place.
        """
        self.global_state = aggregated
        self.round_index += 1
        return aggregated

    def aggregate_updates(
        self,
        updates: Sequence[ClientUpdate],
        staleness_discount: float = 0.5,
    ) -> dict[str, np.ndarray]:
        """Aggregate typed :class:`ClientUpdate` messages.

        Each update is weighted by its sample count, discounted by
        ``staleness_discount ** staleness`` when it arrives late (deadline
        policies carry straggler updates into later rounds).  Fresh updates
        keep their integer sample weights, so full synchronous participation
        matches plain :meth:`aggregate` bit for bit.  Routes through
        :meth:`aggregate`, so subclass behaviour (FLCN's rehearsal
        fine-tuning) applies unchanged.

        An empty round must never reach the server: zero reported clients
        would divide by a zero sample total, so it raises a clear
        :class:`ValueError` instead (the trainer records such rounds as
        skipped and leaves the global state untouched).
        """
        if not updates:
            raise ValueError(
                "cannot aggregate an empty round: zero reported clients "
                "(the trainer records empty rounds as skipped instead)"
            )
        return self.aggregate(
            [update.state for update in updates],
            [update.effective_weight(staleness_discount) for update in updates],
        )


class FLCNServer(FedAvgServer):
    """FLCN (Yao & Sun 2020): server-side continual local training.

    Clients share a fraction of their training samples with the server (the
    privacy cost Section II highlights); after each aggregation the server
    fine-tunes the global model on the accumulated replay buffer so the
    global model does not forget earlier tasks.
    """

    def __init__(
        self,
        model: ImageClassifier,
        finetune_steps: int = 5,
        finetune_lr: float = 0.005,
        batch_size: int = 32,
        max_buffer: int = 2048,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.model = model
        self.finetune_steps = finetune_steps
        self.finetune_lr = finetune_lr
        self.batch_size = batch_size
        self.max_buffer = max_buffer
        self.rng = get_rng(rng)
        self._buffer_x: list[np.ndarray] = []
        self._buffer_y: list[np.ndarray] = []
        self._buffer_mask: list[np.ndarray] = []

    def receive_samples(
        self, x: np.ndarray, y: np.ndarray, class_mask: np.ndarray
    ) -> None:
        """Store replay samples shared by a client (with their task mask)."""
        self._buffer_x.append(np.asarray(x))
        self._buffer_y.append(np.asarray(y))
        self._buffer_mask.append(
            np.broadcast_to(class_mask, (len(y), class_mask.size)).copy()
        )
        total = sum(len(y) for y in self._buffer_y)
        while total > self.max_buffer and len(self._buffer_y) > 1:
            total -= len(self._buffer_y[0])
            self._buffer_x.pop(0)
            self._buffer_y.pop(0)
            self._buffer_mask.pop(0)
        if total > self.max_buffer:
            # a single contribution larger than the cap: truncate it so the
            # buffer can never exceed max_buffer
            self._buffer_x[0] = self._buffer_x[0][: self.max_buffer]
            self._buffer_y[0] = self._buffer_y[0][: self.max_buffer]
            self._buffer_mask[0] = self._buffer_mask[0][: self.max_buffer]

    @property
    def buffer_size(self) -> int:
        return int(sum(len(y) for y in self._buffer_y))

    def buffer_bytes(self) -> int:
        return int(sum(x.nbytes for x in self._buffer_x))

    def install_aggregate(
        self, aggregated: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        aggregated = super().install_aggregate(aggregated)
        if self.buffer_size == 0:
            return aggregated
        # fine-tune the aggregated model on the replay buffer
        self.model.load_state_dict(aggregated)
        self.model.train()
        x = np.concatenate(self._buffer_x)
        y = np.concatenate(self._buffer_y)
        masks = np.concatenate(self._buffer_mask)
        optimizer = SGD(self.model.parameters(), lr=self.finetune_lr)
        n = len(y)
        for _ in range(self.finetune_steps):
            indices = self.rng.choice(n, size=min(self.batch_size, n), replace=False)
            # samples in a batch may carry different task masks; use their union
            union_mask = masks[indices].any(axis=0)
            optimizer.zero_grad()
            loss = F.cross_entropy(
                self.model(Tensor(x[indices])), y[indices], class_mask=union_mask
            )
            loss.backward()
            optimizer.step()
        self.global_state = self.model.state_dict()
        return self.global_state
