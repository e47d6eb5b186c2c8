"""Shard-parallel streaming aggregation for large federations.

A single :class:`~repro.federated.server.FedAvgServer` folds a round's
uploads through one streaming pass — O(1) peak memory, but one accumulator
and one pass.  At 10k-client populations that pass is the server-side
bottleneck, so :class:`ShardedAggregator` partitions the round's
:class:`~repro.federated.protocol.ClientUpdate`\\ s across ``K`` independent
shard accumulators and merges their partial sums into the global state.

**Bit-identity is by construction, not by luck.**  Floating-point addition
is not associative, so regrouping a round's weighted sum across shards
would wobble the result at the last ulp.  Instead both the unsharded server
and this aggregator execute the *same fixed merge tree*: the round's
updates are split (in report order) into at most
:data:`~repro.federated.server.MERGE_SEGMENTS` canonical contiguous
segments, every segment accumulates its clients sequentially into a
:class:`~repro.federated.server.StreamingAccumulator`, and the segment
partials are folded strictly left-to-right.  The shard count only decides
*which shard accumulates which segments* — the float operations and their
order never change — so any ``K`` produces a global state bit-identical to
the unsharded reference, pinned by ``tests/test_sharding.py``.  With up to
``MERGE_SEGMENTS`` clients the tree degenerates to the plain sequential
sum, keeping every pre-sharding workload bit-compatible.

Peak memory per shard is O(segments per shard) accumulators — bounded by
``MERGE_SEGMENTS / K`` whatever the population, with one decoded client
state resident per shard at a time (the streaming property that makes
10k-client rounds feasible).  The merged state is installed through
:meth:`FedAvgServer.install_aggregate`, so post-aggregation server
behaviour (FLCN's rehearsal fine-tuning) applies to sharded rounds
unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .protocol import ClientUpdate
from .server import MERGE_SEGMENTS, FedAvgServer, StreamingAccumulator
from .slices import shard_slices

__all__ = ["MERGE_SEGMENTS", "ShardedAggregator", "shard_slices"]


class ShardedAggregator:
    """Shard-partitioned drop-in for :meth:`FedAvgServer.aggregate_updates`.

    Wraps a server (any :class:`FedAvgServer` subclass): each round's
    updates are split into the canonical merge segments, contiguous segment
    groups are assigned to ``num_shards`` shard accumulators, and the
    segment partials are folded in fixed order before the result is handed
    to the server through ``install_aggregate``.  The shards accumulate one
    after another, in the process that holds the round's updates.
    """

    def __init__(self, server: FedAvgServer, num_shards: int):
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.server = server
        self.num_shards = num_shards
        #: Updates each shard accumulated in the most recent round.
        self.last_shard_counts: tuple[int, ...] = ()

    @property
    def global_state(self):
        return self.server.global_state

    def aggregate_updates(
        self,
        updates: Sequence[ClientUpdate],
        staleness_discount: float = 0.5,
    ) -> dict[str, np.ndarray]:
        """Aggregate one round's updates across the shards.

        Matches :meth:`FedAvgServer.aggregate_updates` semantics exactly:
        staleness-discounted sample weights, normalized by the round's
        global weight total (computed once, in report order, before any
        shard runs — every shard divides by the same float).
        """
        updates = list(updates)
        if not updates:
            raise ValueError(
                "cannot aggregate an empty round: zero reported clients "
                "(the trainer records empty rounds as skipped instead)"
            )
        weights = [u.effective_weight(staleness_discount) for u in updates]
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("aggregation weights must sum to a positive value")
        segments = shard_slices(len(updates), min(len(updates), MERGE_SEGMENTS))
        groups = shard_slices(len(segments), min(self.num_shards, len(segments)))
        base = self.server.global_state
        # each shard's segments accumulate in segment order; the groups are
        # contiguous, so the partials come out in global segment order
        partials = []
        for segment in segments:
            accumulator = StreamingAccumulator(base=base)
            for index in range(segment.start, segment.stop):
                accumulator.add(updates[index].state, weights[index] / total)
            partials.append(accumulator)
        self.last_shard_counts = tuple(
            sum(seg.stop - seg.start for seg in segments[group])
            for group in groups
        )
        return self.server.install_aggregate(self.merge(partials))

    def merge(
        self, partials: Sequence[StreamingAccumulator]
    ) -> dict[str, np.ndarray]:
        """Fold segment partials left-to-right into the final state.

        The fold order is the global segment order (which is the client
        report order), making the merge tree fixed — the same rounded float
        additions the unsharded server performs.  Integer-typed buffers
        come from the first segment, whose first client is the round's
        globally first client, matching the unsharded reference.
        """
        partials = [p for p in partials if p is not None]
        if not partials or all(p.count == 0 for p in partials):
            raise ValueError(
                "cannot merge zero reported clients into a global state"
            )
        fold = partials[0]
        if fold.key_order is None:
            raise ValueError("first shard accumulated no client states")
        for partial in partials[1:]:
            fold.fold_in(partial)
        return fold.finalize()
