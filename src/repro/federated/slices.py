"""Contiguous near-even partitions: merge segments and reporting shards.

A leaf module, shared by the aggregation server (its merge tree) and the
population simulator (its reporting shards), so the simulator does not
import the server to split its population.
"""

from __future__ import annotations


def shard_slices(num_items: int, num_shards: int) -> list[slice]:
    """Contiguous, near-even partition of ``num_items`` into ``num_shards``.

    The first ``num_items % num_shards`` shards carry one extra item; shards
    never outnumber items (a 3-update round at ``K=16`` yields 3 shards), so
    every shard covers at least one item.  Also defines the canonical merge
    segments of the aggregation reduction tree (see
    :data:`~repro.federated.server.MERGE_SEGMENTS`).
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    if num_items < 1:
        raise ValueError("cannot shard an empty round (zero reported clients)")
    num_shards = min(num_shards, num_items)
    base, extra = divmod(num_items, num_shards)
    slices = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        slices.append(slice(start, start + size))
        start += size
    return slices
