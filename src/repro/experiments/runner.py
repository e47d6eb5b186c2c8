"""Shared experiment runner with in-process result caching.

Several of the paper's tables are different views of the same runs (Table I
summarises Fig. 4; Fig. 5's volumes come from the same training jobs), so
:func:`run_single` memoises results by their full setting.  Benchmarks that
execute in one pytest session therefore pay for each training run once.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..data.scenario import ClientDataFactory, Scenario, create_scenario
from ..data.specs import DatasetSpec
from ..edge.arrivals import PopulationModel, create_population
from ..edge.cluster import EdgeCluster
from ..edge.network import NetworkModel
from ..federated.participation import ParticipationPolicy
from ..federated.registry import create_trainer
from ..federated.transport import Transport
from ..metrics.tracker import RunResult
from .config import ScalePreset

_CACHE: dict[tuple, RunResult] = {}


def clear_cache() -> None:
    """Drop all memoised run results."""
    _CACHE.clear()


def _freeze(value):
    """Recursively canonicalize a kwargs value for use in a cache key.

    Mappings become key-sorted tuples at *every* nesting level (two dicts
    with different insertion orders hash identically); sequences become
    tuples; everything else is keyed by its repr.
    """
    if isinstance(value, Mapping):
        return tuple(
            (repr(k), _freeze(v)) for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_freeze(v) for v in value), key=repr))
    return repr(value)


def _cache_key(
    method: str,
    spec: DatasetSpec,
    preset: ScalePreset,
    seed: int,
    cluster: EdgeCluster | None,
    network: NetworkModel | None,
    model_kwargs: dict | None,
    method_kwargs: dict | None,
    participation: str,
    transport: str,
    scenario: str = "class-inc",
    shards: int = 1,
    population: str | None = None,
    selector: str = "magnitude",
) -> tuple:
    cluster_key = (
        tuple(d.name for d in cluster.devices) if cluster is not None else None
    )
    network_key = (
        (network.bandwidth_bytes_per_second, network.uplink,
         network.downlink, network.round_latency_seconds)
        if network is not None else None
    )
    return (
        method,
        spec.name,
        spec.num_tasks,
        spec.train_per_class,
        spec.test_per_class,
        spec.model_name,
        preset.name,
        preset.num_clients,
        preset.rounds_per_task,
        preset.iterations_per_round,
        seed,
        cluster_key,
        network_key,
        _freeze(model_kwargs or {}),
        _freeze(method_kwargs or {}),
        participation,
        transport,
        scenario,
        shards,
        population,
        selector,
    )


def run_single(
    method: str,
    spec: DatasetSpec,
    preset: ScalePreset,
    cluster: EdgeCluster | None = None,
    network: NetworkModel | None = None,
    seed: int | None = None,
    model_kwargs: dict | None = None,
    method_kwargs: dict | None = None,
    use_cache: bool = True,
    engine: str = "serial",
    participation: str | ParticipationPolicy | None = None,
    transport: str | Transport | None = None,
    scenario: str | Scenario | None = None,
    shards: int = 1,
    population: str | PopulationModel | None = None,
    selector: str | None = None,
) -> RunResult:
    """Train ``method`` on ``spec`` at ``preset`` scale and return its metrics.

    ``engine`` selects the round engine ("serial", "thread[:W]",
    "batched[:B]" or "socket[:W]"); all produce identical training metrics,
    so it does not
    participate in the result cache key.  ``shards`` > 1 partitions each
    round's aggregation across that many streaming shard accumulators;
    the final states stay bit-identical but per-shard accounting lands on
    the round records, so shards *are* part of the cache key.
    ``participation`` selects who trains/reports each round ("full",
    "sampled:<fraction>", "deadline:<seconds>", "deadline:auto"); it
    changes the metrics, so it *is* part of the cache key.  ``None`` defers
    to the preset.
    ``transport`` selects the wire format and upload policy ("v1:dense",
    "v2:delta:0.1", ...); it changes the comm metrics, so it is part of the
    cache key too.  ``scenario`` selects the data scenario family
    ("class-inc", "domain-inc:drift=0.3", ...; ``None`` is the paper's
    class-incremental default) and is likewise part of the cache key.
    ``population`` ("fixed", "pareto:1.5,churn=300/600", ...) switches to
    the event-driven trainer whose client presence follows that
    arrival/churn process; it changes who trains each round, so its
    canonical spec joins the cache key (``None`` keeps the synchronous
    trainer).
    ``selector`` picks the signature-knowledge scoring rule ("magnitude",
    "fisher", "hybrid:<mix>"; ``None`` defers to the method's default) for
    the extracting methods; it changes which weights are retained, so its
    canonical spec is part of the cache key.
    Passing a :class:`ParticipationPolicy`, :class:`Transport`, or
    :class:`Scenario` *instance* bypasses the cache entirely — instances
    may carry non-canonical state (sampling RNG, pending stragglers,
    negotiated channel bases, custom allocation ranges) that the spec
    string cannot identify.
    """
    seed = preset.seed if seed is None else seed
    scaled = preset.apply_to_spec(spec)
    if participation is None:
        participation = preset.participation
    if isinstance(participation, ParticipationPolicy):
        use_cache = False
    if isinstance(transport, Transport):
        use_cache = False
        transport_key = transport.describe()
    else:
        # normalise spec strings ("v2:delta" == "v2:delta:0.1") so
        # equivalent transports share a cache entry — and reject malformed
        # specs before any training runs
        from ..federated.transport import create_transport

        transport_key = create_transport(transport).describe()
    participation_key = str(participation)
    if isinstance(scenario, Scenario):
        use_cache = False
        scenario_obj = scenario
    else:
        scenario_obj = create_scenario(scenario)
    population_key = (
        create_population(population).describe()
        if population is not None else None
    )
    # canonicalise ("hybrid:0.50" == "hybrid:0.5") and reject unknown specs
    # or selector/method mismatches before any training runs
    from ..federated.registry import resolve_selector

    selector_key = resolve_selector(method, selector)
    key = _cache_key(
        method, scaled, preset, seed, cluster, network,
        model_kwargs, method_kwargs, participation_key, transport_key,
        scenario_obj.describe(), shards, population_key, selector_key,
    )
    if use_cache and key in _CACHE:
        return _CACHE[key]
    benchmark = scenario_obj.build(
        scaled, num_clients=preset.num_clients, rng=np.random.default_rng(seed)
    )
    # the exact recipe that built ``benchmark`` — the socket engine ships it
    # to its workers so clients cross the boundary without their task arrays
    data_factory = ClientDataFactory(
        scenario_obj, scaled, preset.num_clients, seed
    )
    with create_trainer(
        method,
        benchmark,
        # thread the resolved seed into the config so seed sweeps also vary
        # the participation policy's sampling RNG
        preset.train_config(seed=seed),
        model_seed=1000 + seed,
        rng=np.random.default_rng(seed + 1),
        cluster=cluster,
        network=network,
        model_kwargs=model_kwargs,
        method_kwargs=method_kwargs,
        engine=engine,
        participation=participation,
        transport=transport,
        shards=shards,
        data_factory=data_factory,
        population=population,
        selector=selector,
    ) as trainer:
        result = trainer.run()
    if use_cache:
        _CACHE[key] = result
    return result


def run_methods(
    methods: list[str],
    spec: DatasetSpec,
    preset: ScalePreset,
    **kwargs,
) -> dict[str, RunResult]:
    """Run several methods on the same workload (shared data and init)."""
    return {
        method: run_single(method, spec, preset, **kwargs) for method in methods
    }
