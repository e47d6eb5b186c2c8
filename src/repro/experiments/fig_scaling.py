"""Population-scaling figure: round throughput vs federation size.

The paper's evaluation tops out at 50 edge clients (Fig. 8); this figure
measures the *systems* side of client scaling — wall-clock rounds/sec and
peak RSS as the population grows — across the execution/aggregation grid
the sharded population subsystem opens up:

* round engines: ``serial`` (reference), ``thread``, ``batched`` (clients
  stacked along a leading axis on a captured graph tape — one batched
  forward/backward per step), ``socket`` (the serve subsystem's GIL-free
  framed-TCP worker processes with sticky client affinity, worker-rebuilt
  task data and shared-memory global-state broadcast — clients cross the
  wire once per task, not per round);
* aggregation shards: 1 (the single streaming accumulator) vs K independent
  shard accumulators merged in fixed order.

Every configuration must land on the **same global model**: the
``state_ok`` column checks the final global state bit-for-bit against the
serial unsharded reference at the same population, so the throughput table
doubles as a regression harness for the bit-identity contract.

Measurement notes: each row times ``FederatedTrainer.run_task`` (task
setup + the aggregation rounds, no end-of-stage evaluation) on a fresh
trainer.  ``peak_rss_mb`` is ``ru_maxrss`` of the process and its workers —
a high-water mark, so within one invocation it only moves when a bigger
configuration raises it; read it vs population, not between same-size rows.
The report title records the host's CPU count: the socket engine's win
over serial is a multi-core effect (on a single-core host every socket row
is serial execution plus IPC overhead, so serial necessarily stays ahead).
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from ..data.scenario import ClientDataFactory, create_scenario
from ..data.specs import cifar100_like
from ..federated.config import TrainConfig
from ..federated.registry import create_trainer
from ..federated.simulation import PopulationSimulator
from .config import BENCH, ScalePreset
from .reporting import format_table

#: Populations per preset.  The paper-scale sweep covers the ROADMAP's
#: 50 -> 10k growth target; bench keeps the >=256-client point where the
#: socket engine's win over serial must be measurable.
PRESET_POPULATIONS: dict[str, tuple[int, ...]] = {
    "unit": (8, 16),
    "bench": (64, 256),
    "paper": (50, 250, 1000, 10000),
}

PRESET_ROUNDS: dict[str, int] = {"unit": 2, "bench": 3, "paper": 5}

#: Populations for the event-driven serving sweep (clients in virtual
#: time, no model training): the paper preset covers the ROADMAP's
#: million-client asynchronous-serving target.
PRESET_SIM_POPULATIONS: dict[str, tuple[int, ...]] = {
    "unit": (1_000, 10_000),
    "bench": (10_000, 100_000),
    "paper": (100_000, 1_000_000),
}

PRESET_SIM_ROUNDS: dict[str, int] = {"unit": 5, "bench": 10, "paper": 10}


def _peak_rss_mb() -> float:
    """High-water RSS of this process + its (reaped) workers, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


@dataclass
class ScalingRow:
    """One (population, engine, shards) measurement."""

    population: int
    engine: str
    shards: int
    rounds: int
    wall_seconds: float
    rounds_per_sec: float
    peak_rss_mb: float
    state_ok: bool


@dataclass
class FigScalingReport:
    """Round throughput across populations, engines and shard counts."""

    rows: list[ScalingRow] = field(default_factory=list)
    method: str = "fedavg"
    cpus: int = field(default_factory=lambda: os.cpu_count() or 1)

    def speedup(self, population: int, engine: str) -> float:
        """Rounds/sec of ``engine`` relative to serial at ``population``
        (shards = 1 on both sides); NaN when either row is missing."""
        by_key = {
            (r.population, r.engine, r.shards): r.rounds_per_sec
            for r in self.rows
        }
        reference = by_key.get((population, "serial", 1))
        measured = by_key.get((population, engine, 1))
        if not reference or not measured:
            return float("nan")
        return measured / reference

    def __str__(self) -> str:
        return format_table(
            ["clients", "engine", "shards", "rounds/s", "wall_s",
             "peak_rss_mb", "state_ok"],
            [
                [
                    row.population,
                    row.engine,
                    row.shards,
                    round(row.rounds_per_sec, 3),
                    round(row.wall_seconds, 2),
                    round(row.peak_rss_mb, 1),
                    "yes" if row.state_ok else "NO",
                ]
                for row in self.rows
            ],
            title=(
                f"fig-scaling: {self.method} round throughput vs population "
                f"({self.cpus} CPU{'s' if self.cpus != 1 else ''})"
            ),
        )


@dataclass
class SimScalingRow:
    """One (population-size, population-spec) event-simulation measurement."""

    population: int
    spec: str
    max_staleness: int
    rounds: int
    virtual_seconds: float
    wall_seconds: float
    rounds_per_sec: float
    clients_per_sec: float
    peak_rss_mb: float
    peak_present: int
    evicted: int
    lost: int
    staleness: str


@dataclass
class FigEventSimReport:
    """Event-driven serving throughput vs population size."""

    rows: list[SimScalingRow] = field(default_factory=list)
    cpus: int = field(default_factory=lambda: os.cpu_count() or 1)

    def __str__(self) -> str:
        return format_table(
            ["clients", "population", "maxstale", "rounds", "virtual_s",
             "wall_s", "rounds/s", "clients/s", "peak_rss_mb", "present",
             "staleness"],
            [
                [
                    row.population,
                    row.spec,
                    row.max_staleness,
                    row.rounds,
                    round(row.virtual_seconds, 1),
                    round(row.wall_seconds, 2),
                    round(row.rounds_per_sec, 2),
                    int(row.clients_per_sec),
                    round(row.peak_rss_mb, 1),
                    row.peak_present,
                    row.staleness,
                ]
                for row in self.rows
            ],
            title=(
                f"fig-eventsim: asynchronous serving throughput vs "
                f"population ({self.cpus} CPU"
                f"{'s' if self.cpus != 1 else ''})"
            ),
        )


def run_fig_eventsim(
    preset: ScalePreset = BENCH,
    populations: tuple[int, ...] | None = None,
    population_specs: tuple[str, ...] = (
        "fixed",
        "pareto:1.5,scale=0.001,churn=60/120",
    ),
    max_staleness: int = 2,
    shards: int = 16,
    rounds: int | None = None,
    seed: int = 0,
) -> FigEventSimReport:
    """Measure the event-driven simulator's scheduling throughput.

    Unlike :func:`run_fig_scaling` no model trains here: the sweep
    exercises the *serving* side — priority-queue event scheduling, churn,
    shard-local staleness cut-offs — at populations far beyond what
    per-client trainer state admits (10^5–10^6 clients).  Each row reports
    wall-clock rounds/sec, scheduling throughput in client round-slots/sec,
    peak RSS, and the staleness histogram of aggregated uploads
    (``s:count``, plus ``evict:n`` for updates dropped past the bound).
    """
    populations = (
        populations
        if populations is not None
        else PRESET_SIM_POPULATIONS.get(
            preset.name, PRESET_SIM_POPULATIONS["bench"]
        )
    )
    if rounds is None:
        rounds = PRESET_SIM_ROUNDS.get(preset.name, 10)
    report = FigEventSimReport()
    for population in populations:
        for spec in population_specs:
            sim = PopulationSimulator(
                population,
                population=spec,
                num_rounds=rounds,
                shards=shards,
                max_staleness=max_staleness,
                seed=seed,
            )
            measured = sim.run()
            report.rows.append(
                SimScalingRow(
                    population=population,
                    spec=measured.population,
                    max_staleness=max_staleness,
                    rounds=len(measured.rounds),
                    virtual_seconds=measured.virtual_seconds,
                    wall_seconds=measured.wall_seconds,
                    rounds_per_sec=measured.rounds_per_second,
                    clients_per_sec=measured.clients_per_second,
                    peak_rss_mb=_peak_rss_mb(),
                    peak_present=measured.peak_present,
                    evicted=measured.evicted,
                    lost=measured.lost,
                    staleness=measured.histogram_label(),
                )
            )
    return report


def run_fig_scaling(
    preset: ScalePreset = BENCH,
    populations: tuple[int, ...] | None = None,
    engines: tuple[str, ...] = ("serial", "thread", "batched", "socket"),
    shard_counts: tuple[int, ...] = (1, 4, 16),
    method: str = "fedavg",
    rounds: int | None = None,
    seed: int = 0,
) -> FigScalingReport:
    """Measure rounds/sec and peak RSS across the scaling grid.

    Per population the grid is ``engines`` at 1 shard plus the extra
    ``shard_counts`` on the serial engine (sharding is aggregation-side and
    orthogonal to the round engine).  Each cell trains ``method`` for one
    task stage of ``rounds`` aggregation rounds on a deliberately small
    synthetic workload — the point is the round machinery, not the model.
    """
    populations = (
        populations
        if populations is not None
        else PRESET_POPULATIONS.get(preset.name, PRESET_POPULATIONS["bench"])
    )
    if rounds is None:
        rounds = PRESET_ROUNDS.get(preset.name, 3)
    spec = cifar100_like(train_per_class=4, test_per_class=2).with_tasks(1)
    scenario = create_scenario("class-inc")
    config = TrainConfig(
        batch_size=8,
        lr=0.01,
        rounds_per_task=rounds,
        iterations_per_round=4,
        seed=seed,
    )
    report = FigScalingReport(method=method)
    for population in populations:
        # the serial unsharded row leads the grid: it is the bit-identity
        # reference every other row's state_ok is checked against
        grid = [("serial", 1)]
        grid += [(engine, 1) for engine in engines if engine != "serial"]
        grid += [("serial", k) for k in shard_counts if k != 1]
        reference_state: dict[str, np.ndarray] | None = None
        for engine, shards in grid:
            benchmark = scenario.build(
                spec, num_clients=population, rng=np.random.default_rng(seed)
            )
            data_factory = ClientDataFactory(scenario, spec, population, seed)
            with create_trainer(
                method,
                benchmark,
                config,
                with_cost_model=False,
                engine=engine,
                shards=shards,
                data_factory=data_factory,
            ) as trainer:
                started = time.perf_counter()
                records = trainer.run_task(0)
                wall = time.perf_counter() - started
                state = {
                    key: value.copy()
                    for key, value in trainer.server.global_state.items()
                }
            if reference_state is None:
                reference_state = state  # serial, 1 shard: the reference
            state_ok = set(reference_state) == set(state) and all(
                np.array_equal(reference_state[key], state[key])
                for key in reference_state
            )
            report.rows.append(
                ScalingRow(
                    population=population,
                    engine=engine,
                    shards=shards,
                    rounds=len(records),
                    wall_seconds=wall,
                    rounds_per_sec=len(records) / wall if wall > 0 else 0.0,
                    peak_rss_mb=_peak_rss_mb(),
                    state_ok=state_ok,
                )
            )
    return report
