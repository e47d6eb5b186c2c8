"""Method registry: builds a ready-to-run trainer for any of the 14 methods.

The registry reproduces Section V-B's controlled comparison: every method
gets identical initial weights (a fixed model seed), identical data, and the
same training configuration; only the algorithm differs.

====================  ==========================================
method                composition
====================  ==========================================
fedknow               FedKnowClient + FedAvg server
fedknow-fisher        FedKnowClient (fisher selector) + FedAvg
fedweit               FedWeitClient + FedWeit server
fedavg                SGDClient (no CL strategy) + FedAvg
apfl                  APFLClient + FedAvg
fedrep                FedRepClient + FedAvg (representation keys)
flcn                  FLCNClient + FLCN rehearsal server
fedvb                 FedVBClient + precision-weighted FedVB server
gem / bcn / co2l /
ewc / mas / agscl     SGDClient + CL strategy + FedAvg
====================  ==========================================
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..continual import (
    AGSCLStrategy,
    BCNStrategy,
    Co2LStrategy,
    EWCStrategy,
    GEMStrategy,
    MASStrategy,
)
from ..data.federated import FederatedContinualBenchmark
from ..edge.arrivals import PopulationModel
from ..edge.cluster import EdgeCluster
from ..edge.cost import ModelCostModel
from ..edge.network import NetworkModel
from ..models import build_model
from ..utils.rng import spawn
from .apfl import APFLClient
from .base import SGDClient
from .config import TrainConfig
from .engine import RoundEngine
from .fedrep import FedRepClient
from .fedvb import FedVBClient, FedVBServer
from .fedweit import FedWeitClient, FedWeitServer
from .flcn import FLCNClient
from .participation import ParticipationPolicy
from .server import FedAvgServer, FLCNServer
from .trainer import FederatedTrainer
from .transport import Transport

CONTINUAL_STRATEGIES: dict[str, Callable] = {
    "gem": GEMStrategy,
    "bcn": BCNStrategy,
    "co2l": Co2LStrategy,
    "ewc": EWCStrategy,
    "mas": MASStrategy,
    "agscl": AGSCLStrategy,
}

FEDERATED_METHODS = ("fedavg", "apfl", "fedrep")
FCL_METHODS = ("fedknow", "fedweit", "flcn")

#: Curvature-subsystem method columns: FedKNOW with Fisher-scored signature
#: weights, and the variational-Bayes baseline with precision-weighted
#: aggregation.
CURVATURE_METHODS = ("fedknow-fisher", "fedvb")

#: The 12 methods of the Fig. 4 comparison plus the curvature columns.
ALL_METHODS: tuple[str, ...] = (
    ("fedknow", "fedweit", "flcn")
    + FEDERATED_METHODS
    + tuple(CONTINUAL_STRATEGIES)
    + CURVATURE_METHODS
)

#: Default signature-knowledge selector per extracting method; methods
#: absent here do not extract signature knowledge and reject ``--selector``.
DEFAULT_SELECTORS: dict[str, str] = {
    "fedknow": "magnitude",
    "fedknow-fisher": "fisher",
}


def resolve_selector(method: str, selector: str | None = None) -> str:
    """Canonical selector spec for ``method`` (validates both sides).

    ``None`` resolves to the method's default; an explicit spec is only
    legal for signature-knowledge methods and is normalized through
    :func:`~repro.curv.selector.create_selector` so cache keys and run
    metadata agree on one spelling.  Raises ``ValueError`` for an unknown
    spec or a method that takes no selector.
    """
    from ..curv.selector import create_selector

    if selector is None:
        return create_selector(DEFAULT_SELECTORS.get(method)).describe()
    if method not in DEFAULT_SELECTORS:
        raise ValueError(
            f"--selector only applies to signature-knowledge methods "
            f"({', '.join(sorted(DEFAULT_SELECTORS))}); {method!r} does not "
            f"extract signature knowledge"
        )
    return create_selector(selector).describe()

#: Methods whose clients exchange state with the live server mid-round and
#: therefore cannot run on the socket engine (derived from the client
#: classes' ``process_safe`` flags so it cannot drift from them).
PROCESS_UNSAFE_METHODS: tuple[str, ...] = tuple(
    name
    for name, cls in (("flcn", FLCNClient), ("fedweit", FedWeitClient))
    if not cls.process_safe
)


def _batch_safe_methods() -> tuple[str, ...]:
    """Methods whose local step is a pure loss→backward→SGD update and can
    therefore run stacked on the batched engine (derived from the strategy
    classes' ``batch_safe`` flags so it cannot drift from them)."""
    from ..continual.base import FinetuneStrategy

    safe = []
    if FinetuneStrategy.batch_safe:
        safe.append("fedavg")
    safe.extend(
        name
        for name, strategy_cls in CONTINUAL_STRATEGIES.items()
        if strategy_cls.batch_safe
    )
    return tuple(safe)


#: Methods the batched round engine accepts (``--engine batched``).
BATCH_SAFE_METHODS: tuple[str, ...] = _batch_safe_methods()


def create_trainer(
    method: str,
    benchmark: FederatedContinualBenchmark,
    config: TrainConfig,
    model_seed: int = 1234,
    rng: np.random.Generator | None = None,
    cluster: EdgeCluster | None = None,
    network: NetworkModel | None = None,
    with_cost_model: bool = True,
    model_kwargs: dict | None = None,
    method_kwargs: dict | None = None,
    engine: str | RoundEngine = "serial",
    participation: str | ParticipationPolicy | None = None,
    transport: str | Transport | None = None,
    shards: int = 1,
    data_factory=None,
    population: str | PopulationModel | None = None,
    selector: str | None = None,
) -> FederatedTrainer:
    """Build a :class:`FederatedTrainer` running ``method`` on ``benchmark``.

    ``engine`` accepts instance or spec (``"serial"``, ``"thread[:W]"``,
    ``"batched[:B]"``, ``"socket[:W]"``); ``shards`` > 1 partitions each
    round's aggregation across that many streaming shard accumulators;
    ``data_factory`` is the picklable
    :class:`~repro.data.scenario.ClientDataFactory` the socket engine uses
    to rebuild task data inside its workers.  ``population``
    (a spec like ``"pareto:1.5,churn=300/600"`` or a
    :class:`~repro.edge.arrivals.PopulationModel`) switches to the
    event-driven :class:`~repro.federated.simulation.EventDrivenTrainer`,
    whose client presence follows that arrival/churn process in virtual
    time; ``None`` keeps the synchronous trainer.
    """
    # imported here to avoid a circular import (core.client uses federated.base)
    from ..core.client import FedKnowClient
    from ..core.config import FedKnowConfig

    if method not in ALL_METHODS:
        raise KeyError(f"unknown method {method!r}; known: {sorted(ALL_METHODS)}")
    resolved_selector = resolve_selector(method, selector)
    if method == "fedvb" and shards > 1:
        raise ValueError(
            "fedvb's precision-weighted aggregation does not shard yet; "
            "run it with --shards 1"
        )
    rng = rng or np.random.default_rng(config.seed)
    model_kwargs = dict(model_kwargs or {})
    method_kwargs = dict(method_kwargs or {})
    spec = benchmark.spec

    def model_factory():
        # fixed seed => identical initial weights for every client and method
        return build_model(
            spec.model_name,
            spec.num_classes,
            input_shape=spec.input_shape,
            rng=np.random.default_rng(model_seed),
            **model_kwargs,
        )

    client_rngs = spawn(rng, benchmark.num_clients)
    clients = []

    if method == "flcn":
        server: FedAvgServer = FLCNServer(model_factory(), rng=rng)
    elif method == "fedweit":
        server = FedWeitServer()
    elif method == "fedvb":
        server = FedVBServer()
    else:
        server = FedAvgServer()

    for data, client_rng in zip(benchmark.clients, client_rngs):
        model = model_factory()
        if method in ("fedknow", "fedknow-fisher"):
            client = FedKnowClient(
                data.client_id, data, model, config,
                model_factory=model_factory,
                fedknow=method_kwargs.get("fedknow_config", FedKnowConfig()),
                rng=client_rng,
                selector=resolved_selector,
            )
            # the registry's column name, not the client class's default
            client.method_name = method
        elif method == "fedweit":
            client = FedWeitClient(
                data.client_id, data, model, config, server=server,
                rng=client_rng,
                **{k: v for k, v in method_kwargs.items()
                   if k in ("sparsity_penalty", "drift_penalty",
                            "adaptive_density", "use_foreign")},
            )
        elif method == "flcn":
            client = FLCNClient(
                data.client_id, data, model, config, server=server,
                share_fraction=method_kwargs.get("share_fraction", 0.10),
                rng=client_rng,
            )
        elif method == "apfl":
            client = APFLClient(
                data.client_id, data, model, config,
                model_factory=model_factory, rng=client_rng,
            )
        elif method == "fedrep":
            client = FedRepClient(
                data.client_id, data, model, config, rng=client_rng
            )
        elif method == "fedvb":
            client = FedVBClient(
                data.client_id, data, model, config, rng=client_rng,
                **{k: v for k, v in method_kwargs.items()
                   if k in ("prior_precision", "kl_weight", "init_jitter")},
            )
        elif method == "fedavg":
            client = SGDClient(data.client_id, data, model, config, rng=client_rng)
        else:
            strategy_kwargs = method_kwargs.get("strategy_kwargs", {})
            strategy = CONTINUAL_STRATEGIES[method](**strategy_kwargs)
            client = SGDClient(
                data.client_id, data, model, config,
                strategy=strategy, rng=client_rng,
            )
        clients.append(client)

    cost_model = None
    if with_cost_model:
        cost_model = ModelCostModel(
            clients[0].model, spec.model_name, dataset_name=spec.name
        )
    trainer_cls: type[FederatedTrainer] = FederatedTrainer
    trainer_kwargs: dict = {}
    if population is not None:
        from .simulation import EventDrivenTrainer

        trainer_cls = EventDrivenTrainer
        trainer_kwargs["population"] = population
    return trainer_cls(
        server=server,
        clients=clients,
        config=config,
        cost_model=cost_model,
        cluster=cluster,
        network=network,
        dataset_name=spec.name,
        method_name=method,
        engine=engine,
        participation=participation,
        transport=transport,
        scenario=benchmark.scenario,
        shards=shards,
        data_factory=data_factory,
        selector=resolved_selector,
        **trainer_kwargs,
    )
