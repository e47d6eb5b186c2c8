"""What a process imports: lazy package exports and per-run module sets.

Packages export their names on first use and registries import a method's
or model's modules when it is asked for, so a process loads only what its
run uses.  The footprint cases run in a fresh interpreter, since a test
process has imported most of the package long before they run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every package under ``src/repro``, found on disk so a new one is covered.
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in SRC.rglob("__init__.py")
)

LOADED = """
import json, sys

def loaded():
    return {name for name in sys.modules
            if name == "repro" or name.startswith("repro.")}
"""

#: A training workload's set-up as the end-to-end benchmark does it (the
#: seeding of ``repro.experiments.run_single``), one trivial ``map`` to
#: start the engine, then the run.  argv: method, engine, transport, clients.
TRAIN = LOADED + """
import numpy as np
from repro.data import create_scenario, get_spec
from repro.data.scenario import ClientDataFactory
from repro.edge import jetson_cluster
from repro.experiments.config import get_preset
from repro.federated.registry import create_trainer

method, engine, transport, clients = sys.argv[1:]
preset = get_preset("unit").updated(
    num_clients=int(clients), num_tasks=2, rounds_per_task=1,
    iterations_per_round=2,
)
spec = preset.apply_to_spec(get_spec("cifar100"))
scenario = create_scenario("class-inc")
benchmark = scenario.build(spec, num_clients=preset.num_clients,
                           rng=np.random.default_rng(0))
factory = ClientDataFactory(scenario, spec, preset.num_clients, 0)
trainer = create_trainer(
    method, benchmark, preset.train_config(seed=0), model_seed=1000,
    rng=np.random.default_rng(1), cluster=jetson_cluster(), engine=engine,
    transport=transport, data_factory=factory,
)
trainer.engine.map(abs, [1])
setup = loaded()
try:
    trainer.run()
finally:
    trainer.close()
print(json.dumps({"setup": sorted(setup), "run": sorted(loaded() - setup)}))
"""

SIMULATE = LOADED + """
from repro.federated import PopulationSimulator

simulator = PopulationSimulator(2000, "fixed,churn=60/120", num_rounds=2,
                                shards=16, max_staleness=2, seed=0)
setup = loaded()
simulator.run()
print(json.dumps({"setup": sorted(setup), "run": sorted(loaded() - setup)}))
"""


def run_fresh(code: str, *args: str):
    """The JSON on the last stdout line of ``code`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def under(names, *prefixes: str) -> list[str]:
    """The names that are one of ``prefixes`` or a module inside one."""
    return sorted(name for name in names
                  if any(name == p or name.startswith(p + ".")
                         for p in prefixes))


# ----------------------------------------------------------------------
# footprints
# ----------------------------------------------------------------------
#: The other methods' modules, and the architectures the benchmark's SixCNN
#: does not use.
OTHER_METHODS = tuple(f"repro.federated.{name}" for name in (
    "apfl", "fedrep", "fedvb", "fedweit", "flcn"))
OTHER_MODELS = tuple(f"repro.models.{name}" for name in (
    "densenet", "inception", "mobilenet", "resnet", "senet", "shufflenet"))


@pytest.fixture(scope="module")
def footprints() -> dict[str, dict]:
    """The modules each workload's set-up loaded, and those its run added."""
    return {
        "simulate": run_fresh(SIMULATE),
        "serial": run_fresh(TRAIN, "fedknow", "serial", "v1:dense", "2"),
        "batched": run_fresh(TRAIN, "fedavg", "batched", "v2:delta:0.1", "4"),
        "socket": run_fresh(TRAIN, "fedknow", "socket:2", "v1:dense", "2"),
    }


def test_the_simulator_loads_no_training_module(footprints):
    setup = footprints["simulate"]["setup"]
    assert under(setup, "repro.nn", "repro.core", "repro.data",
                 "repro.models") == []
    assert under(setup, *(f"repro.federated.{name}" for name in (
        "trainer", "base", "server", "registry"))) == []


@pytest.mark.parametrize("workload, own", [
    ("serial", ()),
    # fedavg's SGD client runs the do-nothing strategy of continual.base
    ("batched", ("repro.continual", "repro.continual.base")),
])
def test_a_trainer_loads_only_its_own_method(footprints, workload, own):
    setup = footprints[workload]["setup"]
    assert under(setup, *OTHER_METHODS) == []
    assert [name for name in under(setup, "repro.continual")
            if name not in own] == []
    assert under(setup, "repro.experiments") == [
        "repro.experiments", "repro.experiments.config"]
    assert under(setup, *OTHER_MODELS) == []
    assert "repro.models.six_cnn" in setup
    assert under(setup, "repro.serve") == []


def test_no_workload_imports_a_module_inside_its_run(footprints):
    assert "repro.serve.engine" in footprints["socket"]["setup"]
    assert {name: got["run"] for name, got in footprints.items()} == {
        name: [] for name in footprints}


def test_the_simulate_command_loads_no_nn_or_figure_module():
    got = run_fresh(LOADED + """
from repro.cli import main

code = main(["simulate", "--clients", "2000", "--population", "fixed",
             "--rounds", "1"])
print(json.dumps({"code": code, "loaded": sorted(loaded())}))
""")
    assert got["code"] == 0
    assert under(got["loaded"], "repro.nn") == []
    figures = [name for name in under(got["loaded"], "repro.experiments")
               if name not in ("repro.experiments",
                               "repro.experiments.reporting")]
    assert figures == []


# ----------------------------------------------------------------------
# the lazy tables
# ----------------------------------------------------------------------
def test_every_exported_name_resolves_and_is_listed():
    got = run_fresh(LOADED + """
import importlib

missing = {}
for package in sys.argv[1:]:
    module = importlib.import_module(package)
    listed = set(dir(module))
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError as error:
            missing[f"{package}.{name}"] = str(error)
            continue
        if name not in listed:
            missing[f"{package}.{name}"] = "not in dir()"
print(json.dumps(missing))
""", *PACKAGES)
    assert got == {}


def test_moved_names_keep_their_old_paths():
    got = run_fresh(LOADED + """
import types
import repro.models.densenet
import repro.models.inception
from repro.federated.simulation import EventDrivenTrainer as from_sim
from repro.federated.event_trainer import EventDrivenTrainer
from repro.federated.server import shard_slices as from_server
from repro.federated.slices import shard_slices
from repro.models import densenet, inception

print(json.dumps({
    "trainer": from_sim is EventDrivenTrainer,
    "slices": from_server is shard_slices,
    # a factory, not the module of the same name it lives in
    "factories": [isinstance(f, types.FunctionType)
                  for f in (densenet, inception)],
}))
""")
    assert got == {"trainer": True, "slices": True,
                   "factories": [True, True]}


def test_the_engine_tables_match_the_class_flags():
    from repro.continual.base import FinetuneStrategy
    from repro.data import build_benchmark, cifar100_like
    from repro.federated import TrainConfig
    from repro.federated.registry import (
        ALL_METHODS, BATCH_SAFE_METHODS, CONTINUAL_STRATEGIES,
        PROCESS_UNSAFE_METHODS, create_trainer,
    )

    # batch-safe: fedavg and the CL baselines whose strategy sets the flag
    strategies = {"fedavg": FinetuneStrategy, **CONTINUAL_STRATEGIES}
    assert BATCH_SAFE_METHODS == tuple(
        name for name, strategy in strategies.items() if strategy.batch_safe
    )
    # process-unsafe: every method whose client class clears the flag; and
    # the clients a trainer builds report batch-safe exactly for the table
    spec = cifar100_like(train_per_class=2, test_per_class=1).with_tasks(2)
    bench = build_benchmark(spec, num_clients=1, rng=np.random.default_rng(0))
    unsafe, batchable = [], []
    for method in ALL_METHODS:
        with create_trainer(method, bench, TrainConfig(),
                            with_cost_model=False) as trainer:
            if not type(trainer.clients[0]).process_safe:
                unsafe.append(method)
            if trainer.clients[0].batch_safe:
                batchable.append(method)
    assert sorted(PROCESS_UNSAFE_METHODS) == sorted(unsafe)
    assert sorted(BATCH_SAFE_METHODS) == sorted(batchable)
