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

Classes are named by ``module:attr`` and imported when a trainer for their
method is built, so importing the registry loads no method's modules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .. import _LazyTable, _load
from ..utils.rng import spawn

if TYPE_CHECKING:
    from ..data.federated import FederatedContinualBenchmark
    from ..edge.arrivals import PopulationModel
    from ..edge.cluster import EdgeCluster
    from ..edge.network import NetworkModel
    from .config import TrainConfig
    from .engine import RoundEngine
    from .participation import ParticipationPolicy
    from .trainer import FederatedTrainer
    from .transport import Transport

#: The CL strategy class of each continual baseline (run on an SGDClient),
#: imported when first looked up.
CONTINUAL_STRATEGIES = _LazyTable({
    "gem": "repro.continual.gem:GEMStrategy",
    "bcn": "repro.continual.bcn:BCNStrategy",
    "co2l": "repro.continual.co2l:Co2LStrategy",
    "ewc": "repro.continual.ewc:EWCStrategy",
    "mas": "repro.continual.mas:MASStrategy",
    "agscl": "repro.continual.agscl:AGSCLStrategy",
})

_FEDAVG = "repro.federated.server:FedAvgServer"
_SGD = "repro.federated.base:SGDClient"

#: method -> (client class, server class), imported when a trainer for that
#: method is built, so a run loads its own method's modules and no other's.
#: Methods absent here are the CL strategies, on SGDClient + FedAvg.
_COMPOSITION: dict[str, tuple[str, str]] = {
    "fedknow": ("repro.core.client:FedKnowClient", _FEDAVG),
    "fedknow-fisher": ("repro.core.client:FedKnowClient", _FEDAVG),
    "fedweit": ("repro.federated.fedweit:FedWeitClient",
                "repro.federated.fedweit:FedWeitServer"),
    "fedavg": (_SGD, _FEDAVG),
    "apfl": ("repro.federated.apfl:APFLClient", _FEDAVG),
    "fedrep": ("repro.federated.fedrep:FedRepClient", _FEDAVG),
    "flcn": ("repro.federated.flcn:FLCNClient",
             "repro.federated.server:FLCNServer"),
    "fedvb": ("repro.federated.fedvb:FedVBClient",
              "repro.federated.fedvb:FedVBServer"),
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
#: therefore cannot run on the socket engine: those whose client class sets
#: ``process_safe = False``.  Spelled out so that importing the registry
#: imports no client class; ``tests/test_imports.py`` holds it to the flags.
PROCESS_UNSAFE_METHODS: tuple[str, ...] = ("flcn", "fedweit")

#: Methods the batched round engine accepts (``--engine batched``): those
#: whose local step is a pure loss→backward→SGD update, i.e. whose strategy
#: class sets ``batch_safe`` (fedavg runs ``FinetuneStrategy``).  Held to
#: the flags by ``tests/test_imports.py``, as above.
BATCH_SAFE_METHODS: tuple[str, ...] = ("fedavg",)


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
    data_factory=None,
    population: str | PopulationModel | None = None,
    selector: str | None = None,
) -> FederatedTrainer:
    """Build a :class:`FederatedTrainer` running ``method`` on ``benchmark``.

    ``engine`` accepts instance or spec (``"serial"``, ``"batched[:B]"``,
    ``"socket[:W]"``); ``data_factory`` is the picklable
    :class:`~repro.data.scenario.ClientDataFactory` the socket engine uses
    to rebuild task data inside its workers.  ``population``
    (a spec like ``"pareto:1.5,churn=300/600"`` or a
    :class:`~repro.edge.arrivals.PopulationModel`) switches to the
    event-driven :class:`~repro.federated.event_trainer.EventDrivenTrainer`,
    whose client presence follows that arrival/churn process in virtual
    time; ``None`` keeps the synchronous trainer.
    """
    from ..models.zoo import build_model

    if method not in ALL_METHODS:
        raise KeyError(f"unknown method {method!r}; known: {sorted(ALL_METHODS)}")
    resolved_selector = resolve_selector(method, selector)
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
    client_path, server_path = _COMPOSITION.get(method, (_SGD, _FEDAVG))
    client_cls, server_cls = _load(client_path), _load(server_path)
    if method == "flcn":
        server = server_cls(model_factory(), rng=rng)
    else:
        server = server_cls()

    for data, client_rng in zip(benchmark.clients, client_rngs):
        model = model_factory()
        if method in ("fedknow", "fedknow-fisher"):
            client = client_cls(
                data.client_id, data, model, config,
                model_factory=model_factory,
                fedknow=method_kwargs.get("fedknow_config"),
                rng=client_rng,
                selector=resolved_selector,
            )
            # the registry's column name, not the client class's default
            client.method_name = method
        elif method == "fedweit":
            client = client_cls(
                data.client_id, data, model, config, server=server,
                rng=client_rng,
                **{k: v for k, v in method_kwargs.items()
                   if k in ("sparsity_penalty", "drift_penalty",
                            "adaptive_density", "use_foreign")},
            )
        elif method == "flcn":
            client = client_cls(
                data.client_id, data, model, config, server=server,
                share_fraction=method_kwargs.get("share_fraction", 0.10),
                rng=client_rng,
            )
        elif method == "apfl":
            client = client_cls(
                data.client_id, data, model, config,
                model_factory=model_factory, rng=client_rng,
            )
        elif method == "fedrep":
            client = client_cls(
                data.client_id, data, model, config, rng=client_rng
            )
        elif method == "fedvb":
            client = client_cls(
                data.client_id, data, model, config, rng=client_rng,
                **{k: v for k, v in method_kwargs.items()
                   if k in ("prior_precision", "kl_weight", "init_jitter")},
            )
        elif method == "fedavg":
            client = client_cls(
                data.client_id, data, model, config, rng=client_rng
            )
        else:
            strategy_kwargs = method_kwargs.get("strategy_kwargs", {})
            strategy = CONTINUAL_STRATEGIES[method](**strategy_kwargs)
            client = client_cls(
                data.client_id, data, model, config,
                strategy=strategy, rng=client_rng,
            )
        clients.append(client)

    cost_model = None
    if with_cost_model:
        from ..edge.cost import ModelCostModel

        cost_model = ModelCostModel(
            clients[0].model, spec.model_name, dataset_name=spec.name
        )
    trainer_kwargs: dict = {}
    if population is None:
        from .trainer import FederatedTrainer as trainer_cls
    else:
        from .event_trainer import EventDrivenTrainer as trainer_cls

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
        data_factory=data_factory,
        selector=resolved_selector,
        **trainer_kwargs,
    )
