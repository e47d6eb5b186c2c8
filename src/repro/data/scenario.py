"""Pluggable federated continual-learning scenarios.

The legacy :func:`~repro.data.federated.build_benchmark` hard-codes one
recipe — the paper's Section V-A class-incremental setup.  This module turns
the data layer into a registry of **scenario families**, each owning the
four axes that define a federated continual workload:

* **class-to-task assignment** — which global classes a task draws from;
* **per-client class/sample allocation** — a pluggable :class:`Partitioner`;
* **task ordering** — how each client sequences the tasks;
* **per-task feature transforms** — domain shift layered on the per-client
  channel gain/bias.

Scenarios are addressed by compact spec strings, mirroring the
participation-policy and transport registries::

    create_scenario("class-inc")                 # the paper's setup (default)
    create_scenario("domain-inc:drift=0.3")      # fixed classes, drifting input domain
    create_scenario("label-shift:dirichlet:0.3") # Dirichlet per-class sample skew
    create_scenario("blurry:overlap=0.2")        # classes leak across task boundaries
    create_scenario("async-arrival")             # staggered task arrival per client

Clients receive a lazy :class:`TaskStream` instead of an eagerly built
``clients x tasks`` grid: a :class:`~repro.data.federated.ClientTask` is
materialized on first access, so constructing a large population is O(clients)
and each task's arrays are only synthesized when the trainer reaches it.
Laziness is deterministic:

* independent scenarios derive a sub-RNG per ``(client, position)`` from one
  :class:`numpy.random.SeedSequence`, so tasks can materialize in any order
  (lazy == eager, array for array);
* the ``"class-inc"`` family instead threads one RNG through each client's
  sequence — the legacy builder's exact draw order — and the stream
  materializes positions in order (accessing position ``p`` forces
  ``0..p``).  That is what keeps ``create_scenario("class-inc")``
  bit-identical to :func:`build_benchmark`, the same compatibility contract
  as the dense-v1 transport and ``full`` participation refactors.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from ..utils.rng import get_rng, spawn
from .federated import (
    ClientData,
    ClientTask,
    FederatedContinualBenchmark,
    allocate_task_classes,
    task_classes,
)
from .specs import DatasetSpec
from .synthetic import ClientTransform, SyntheticImageSource


# ----------------------------------------------------------------------
# lazy task streams
# ----------------------------------------------------------------------
class TaskStream:
    """Lazy, deterministic sequence of one client's :class:`ClientTask`\\ s.

    Supports ``len``, integer indexing and iteration, so it is a drop-in
    for the eager ``list[ClientTask]`` the legacy builder produces.  Tasks
    are built by ``materialize(position)`` on first access and cached.

    ``sequential=True`` marks a materializer that threads one RNG through
    the whole sequence (the class-inc legacy replay): accessing position
    ``p`` forces positions ``0..p`` in order.  Independent materializers
    (``sequential=False``) build any position in isolation.
    """

    def __init__(
        self,
        num_positions: int,
        materialize: Callable[[int], ClientTask],
        sequential: bool = False,
    ):
        if num_positions < 0:
            raise ValueError(f"negative stream length {num_positions}")
        self._num_positions = num_positions
        self._materialize = materialize
        self._sequential = sequential
        self._cache: dict[int, ClientTask] = {}

    def __len__(self) -> int:
        return self._num_positions

    def __getitem__(self, position: int) -> ClientTask:
        position = int(position)
        if position < 0:
            position += self._num_positions
        if not 0 <= position < self._num_positions:
            raise IndexError(
                f"position {position} out of range [0, {self._num_positions})"
            )
        if position not in self._cache:
            if self._sequential:
                for p in range(len(self._cache), position + 1):
                    self._cache[p] = self._materialize(p)
            else:
                self._cache[position] = self._materialize(position)
        return self._cache[position]

    def __iter__(self) -> Iterator[ClientTask]:
        return (self[p] for p in range(self._num_positions))

    @property
    def num_materialized(self) -> int:
        """How many positions have been built so far."""
        return len(self._cache)

    def materialize_all(self) -> list[ClientTask]:
        """Force every position and return the tasks as a list."""
        return [self[p] for p in range(self._num_positions)]

    def __repr__(self) -> str:
        return (
            f"TaskStream(len={self._num_positions}, "
            f"materialized={len(self._cache)}, "
            f"{'sequential' if self._sequential else 'independent'})"
        )


# ----------------------------------------------------------------------
# partitioners: per-client class / sample allocation
# ----------------------------------------------------------------------
class Partitioner:
    """Allocates a client's class subset and sample budget for one task."""

    name = "base"

    def describe(self) -> str:
        return self.name

    def allocate(
        self, pool: np.ndarray, rng: np.random.Generator, spec: DatasetSpec
    ) -> tuple[np.ndarray, "int | np.ndarray"]:
        """Return ``(chosen_classes, per_class_counts)`` for one task.

        ``per_class_counts`` is a scalar budget or an array aligned with
        ``chosen_classes`` (see :meth:`SyntheticImageSource.make_split`).
        """
        raise NotImplementedError


class RangePartitioner(Partitioner):
    """The paper's allocation: 2–5 classes, a random fraction of the budget."""

    name = "range"

    def __init__(
        self,
        classes_per_client: tuple[int, int] = (2, 5),
        sample_fraction: tuple[float, float] = (0.5, 1.0),
    ):
        low, high = classes_per_client
        if not 1 <= low <= high:
            raise ValueError(
                f"invalid classes_per_client range {classes_per_client}"
            )
        frac_low, frac_high = sample_fraction
        if not 0.0 < frac_low <= frac_high <= 1.0:
            raise ValueError(f"invalid sample_fraction range {sample_fraction}")
        self.classes_per_client = (low, high)
        self.sample_fraction = (frac_low, frac_high)

    def allocate(
        self, pool: np.ndarray, rng: np.random.Generator, spec: DatasetSpec
    ) -> tuple[np.ndarray, int]:
        return allocate_task_classes(
            pool, rng, self.classes_per_client, self.sample_fraction,
            spec.train_per_class,
        )


class DirichletPartitioner(Partitioner):
    """Dirichlet label-shift: per-class budgets follow ``Dir(alpha)`` draws.

    Smaller ``alpha`` concentrates a client's budget on fewer classes (the
    standard federated non-IID knob).  Classes whose allocated count falls
    below two samples are dropped; the heaviest class is always kept.
    """

    name = "dirichlet"

    #: Budget cap in classes, mirroring the paper's <=5 classes per client.
    budget_classes = 5

    def __init__(self, alpha: float = 0.3):
        if not alpha > 0:
            raise ValueError(f"dirichlet alpha must be positive, got {alpha}")
        self.alpha = alpha

    def describe(self) -> str:
        return f"dirichlet:{self.alpha:g}"

    def allocate(
        self, pool: np.ndarray, rng: np.random.Generator, spec: DatasetSpec
    ) -> tuple[np.ndarray, np.ndarray]:
        pool = np.asarray(pool)
        proportions = rng.dirichlet(np.full(len(pool), self.alpha))
        budget = spec.train_per_class * min(len(pool), self.budget_classes)
        counts = np.rint(proportions * budget).astype(np.int64)
        keep = counts >= 2
        if not keep.any():
            top = int(np.argmax(proportions))
            counts[top] = max(int(counts[top]), 2)
            keep[top] = True
        return pool[keep], counts[keep]


class PowerLawPartitioner(Partitioner):
    """Quantity skew: class picks match the paper's range allocation, but
    each task's sample budget follows a power-law draw.

    The budget fraction is ``u ** (1 / alpha)`` with ``u ~ U(0, 1)``, i.e.
    ``P[fraction <= x] = x ** alpha``: small ``alpha`` gives a federation
    where most clients hold a handful of samples and a heavy tail holds
    nearly the full budget — the standard quantity-skew partition.  Label
    composition stays balanced (same per-class count within a client), so
    the knob isolates data *volume* heterogeneity from label shift.
    """

    name = "powerlaw"

    def __init__(
        self,
        alpha: float = 0.5,
        classes_per_client: tuple[int, int] = (2, 5),
    ):
        if not alpha > 0:
            raise ValueError(f"powerlaw alpha must be positive, got {alpha}")
        low, high = classes_per_client
        if not 1 <= low <= high:
            raise ValueError(
                f"invalid classes_per_client range {classes_per_client}"
            )
        self.alpha = alpha
        self.classes_per_client = (low, high)

    def describe(self) -> str:
        return f"powerlaw:{self.alpha:g}"

    def allocate(
        self, pool: np.ndarray, rng: np.random.Generator, spec: DatasetSpec
    ) -> tuple[np.ndarray, int]:
        low, high = self.classes_per_client
        low = min(low, len(pool))
        high = min(high, len(pool))
        if low < 1:
            raise ValueError(
                f"task class pool of size {len(pool)} admits no valid "
                f"allocation for classes_per_client={self.classes_per_client}"
            )
        count = int(rng.integers(low, high + 1))
        chosen = np.sort(rng.choice(pool, size=count, replace=False))
        fraction = float(rng.uniform()) ** (1.0 / self.alpha)
        per_class = max(int(round(fraction * spec.train_per_class)), 2)
        return chosen, per_class


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
class Scenario:
    """A federated continual-learning workload family.

    Subclasses override the four hook methods (task pools, ordering,
    allocation, transforms); :meth:`build` assembles the lazy benchmark.
    ``independent`` selects the stream RNG discipline: per-(client,
    position) sub-streams (random access) versus one threaded RNG per
    client (the class-inc legacy replay).
    """

    name = "base"
    independent = True
    partitioner: Partitioner = RangePartitioner()
    shuffle_task_order = True
    client_feature_shift = True

    @classmethod
    def from_spec(cls, args: list[str], kwargs: dict[str, str]) -> "Scenario":
        """Build an instance from a parsed spec string (no arguments)."""
        if args or kwargs:
            raise ValueError(f"scenario {cls.name!r} takes no arguments")
        return cls()

    def describe(self) -> str:
        """Canonical spec string (stable across runs; used in cache keys)."""
        return self.name

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def task_pool(self, spec: DatasetSpec, task_id: int) -> np.ndarray:
        """Global class ids task ``task_id`` draws from."""
        return task_classes(spec, task_id)

    def task_order(
        self, num_tasks: int, rng: np.random.Generator
    ) -> np.ndarray:
        """One client's private task sequence."""
        if self.shuffle_task_order:
            return rng.permutation(num_tasks)
        return np.arange(num_tasks)

    def client_transform(
        self, channels: int, rng: np.random.Generator
    ) -> ClientTransform:
        """The client's private feature transform."""
        if self.client_feature_shift:
            return ClientTransform.random(channels, rng)
        return ClientTransform.identity(channels)

    def task_transform(
        self, spec: DatasetSpec, task_id: int, base: ClientTransform
    ) -> ClientTransform:
        """Transform applied to task ``task_id``'s data (default: the
        client transform unchanged; domain-incremental scenarios compose a
        per-task domain shift on top)."""
        return base

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(
        self,
        spec: DatasetSpec,
        num_clients: int,
        rng: np.random.Generator | None = None,
        eager: bool = False,
    ) -> FederatedContinualBenchmark:
        """Build the benchmark with one lazy :class:`TaskStream` per client.

        ``eager=True`` forces every task up front (the legacy behaviour);
        lazy and eager builds produce identical arrays.
        """
        rng = get_rng(rng)
        if num_clients < 1:
            raise ValueError(f"need at least one client, got {num_clients}")
        source = SyntheticImageSource(
            num_classes=spec.num_classes,
            input_shape=spec.input_shape,
            noise=spec.noise,
            dataset_seed=spec.dataset_seed,
        )
        entropy = (
            int(rng.integers(0, 2**63 - 1)) if self.independent else None
        )
        client_rngs = spawn(rng, num_clients)
        channels = spec.input_shape[0]
        clients = []
        for client_id, client_rng in enumerate(client_rngs):
            transform = self.client_transform(channels, client_rng)
            order = self.task_order(spec.num_tasks, client_rng)
            materialize = self._materializer(
                spec, source, client_id, order, transform,
                None if self.independent else client_rng, entropy,
            )
            stream = TaskStream(
                spec.num_tasks, materialize, sequential=not self.independent
            )
            if eager:
                stream.materialize_all()
            clients.append(ClientData(client_id, stream, transform))
        return FederatedContinualBenchmark(
            spec=spec, clients=clients, source=source,
            scenario=self.describe(),
        )

    def _materializer(
        self,
        spec: DatasetSpec,
        source: SyntheticImageSource,
        client_id: int,
        order: np.ndarray,
        transform: ClientTransform,
        seq_rng: np.random.Generator | None,
        entropy: int | None,
    ) -> Callable[[int], ClientTask]:
        return _TaskMaterializer(
            self, spec, source, client_id, order, transform, seq_rng, entropy
        )


class _TaskMaterializer:
    """Picklable per-client task builder.

    A plain class (not a closure) so client data — and therefore whole
    clients — can cross process boundaries: the socket round engine and
    its pickle-safety tests rely on task streams being picklable.  Holds
    exactly the state the old closure captured; ``seq_rng`` is the threaded
    legacy-replay generator of sequential scenarios (``None`` for
    independent families, which derive a sub-RNG per position).
    """

    def __init__(
        self,
        scenario: "Scenario",
        spec: DatasetSpec,
        source: SyntheticImageSource,
        client_id: int,
        order: np.ndarray,
        transform: ClientTransform,
        seq_rng: np.random.Generator | None,
        entropy: int | None,
    ):
        self.scenario = scenario
        self.spec = spec
        self.source = source
        self.client_id = client_id
        self.order = order
        self.transform = transform
        self.seq_rng = seq_rng
        self.entropy = entropy

    def __call__(self, position: int) -> ClientTask:
        task_id = int(self.order[position])
        rng = (
            self.seq_rng
            if self.seq_rng is not None
            else np.random.default_rng(
                np.random.SeedSequence(
                    entropy=self.entropy, spawn_key=(self.client_id, position)
                )
            )
        )
        spec = self.spec
        pool = self.scenario.task_pool(spec, task_id)
        chosen, counts = self.scenario.partitioner.allocate(pool, rng, spec)
        applied = self.scenario.task_transform(spec, task_id, self.transform)
        train_x, train_y = self.source.make_split(chosen, counts, rng, applied)
        test_x, test_y = self.source.make_split(
            chosen, spec.test_per_class, rng, applied
        )
        return ClientTask(
            task_id=task_id,
            position=position,
            classes=chosen,
            train_x=train_x,
            train_y=train_y,
            test_x=test_x,
            test_y=test_y,
            num_total_classes=spec.num_classes,
        )


class ClientDataFactory:
    """Picklable recipe that rebuilds a scenario benchmark deterministically.

    The socket round engine ships this to its workers instead of the data
    itself:
    the factory re-runs ``scenario.build(spec, num_clients, default_rng(seed))``
    — the exact construction the experiment runner performed — so a worker's
    lazily rebuilt task arrays are bit-identical to the parent's.  Only
    valid when the parent benchmark was built from precisely these
    arguments.
    """

    def __init__(
        self,
        scenario: "Scenario",
        spec: DatasetSpec,
        num_clients: int,
        seed: int,
    ):
        self.scenario = scenario
        self.spec = spec
        self.num_clients = num_clients
        self.seed = seed

    def __call__(self) -> FederatedContinualBenchmark:
        return self.scenario.build(
            self.spec,
            num_clients=self.num_clients,
            rng=np.random.default_rng(self.seed),
        )


class ClassIncrementalScenario(Scenario):
    """The paper's Section V-A setup — bit-identical to the legacy builder.

    Contiguous class blocks per task, the 2–5 class / 50–100 % sample
    allocation, a private shuffled task order and a private feature
    transform per client.  The stream replays :func:`build_benchmark`'s
    exact RNG draw sequence (one generator threaded through each client's
    tasks), so lazily materialized arrays match the eager legacy output
    array for array.
    """

    name = "class-inc"
    independent = False

    def __init__(
        self,
        classes_per_client: tuple[int, int] = (2, 5),
        sample_fraction: tuple[float, float] = (0.5, 1.0),
        shuffle_task_order: bool = True,
        client_feature_shift: bool = True,
    ):
        self.partitioner = RangePartitioner(classes_per_client, sample_fraction)
        self.shuffle_task_order = shuffle_task_order
        self.client_feature_shift = client_feature_shift

    @classmethod
    def from_spec(cls, args, kwargs):
        if args:
            raise ValueError(
                "scenario 'class-inc' takes key=value arguments only "
                "(classes=LO-HI, fraction=LO-HI, order=shuffled|fixed, "
                "shift=on|off)"
            )
        unknown = set(kwargs) - {"classes", "fraction", "order", "shift"}
        if unknown:
            raise ValueError(
                f"scenario 'class-inc' got unknown parameters {sorted(unknown)}"
            )
        try:
            classes = _parse_range(kwargs.get("classes", "2-5"), int)
            fraction = _parse_range(kwargs.get("fraction", "0.5-1"), float)
        except ValueError:
            raise ValueError(
                f"scenario 'class-inc' has a malformed range argument in "
                f"{kwargs!r}; expected LO-HI"
            ) from None
        order = kwargs.get("order", "shuffled")
        shift = kwargs.get("shift", "on")
        if order not in ("shuffled", "fixed") or shift not in ("on", "off"):
            raise ValueError(
                f"scenario 'class-inc' expects order=shuffled|fixed and "
                f"shift=on|off, got order={order!r} shift={shift!r}"
            )
        return cls(
            classes_per_client=classes,
            sample_fraction=fraction,
            shuffle_task_order=order == "shuffled",
            client_feature_shift=shift == "on",
        )

    def describe(self) -> str:
        """Canonical spec; non-default parameters are spelled out (and
        round-trip through :func:`create_scenario`)."""
        parts = [self.name]
        low, high = self.partitioner.classes_per_client
        if (low, high) != (2, 5):
            parts.append(f"classes={low}-{high}")
        frac_low, frac_high = self.partitioner.sample_fraction
        if (frac_low, frac_high) != (0.5, 1.0):
            parts.append(f"fraction={frac_low:g}-{frac_high:g}")
        if not self.shuffle_task_order:
            parts.append("order=fixed")
        if not self.client_feature_shift:
            parts.append("shift=off")
        return ":".join(parts)


class DomainIncrementalScenario(Scenario):
    """Fixed label space, drifting input domain.

    Every task draws from the *full* class universe; what changes across
    tasks is the input distribution — a per-task channel gain/bias shift,
    shared by all clients and growing to magnitude ``drift`` by the final
    task (task 0 is the reference domain), composed with each client's
    private transform.
    """

    name = "domain-inc"

    def __init__(self, drift: float = 0.3):
        if not 0.0 <= drift <= 1.0:
            raise ValueError(f"drift must be in [0, 1], got {drift}")
        self.drift = drift

    @classmethod
    def from_spec(cls, args, kwargs):
        drift = _numeric_arg("domain-inc", "drift", args, kwargs, default=0.3)
        return cls(drift=drift)

    def describe(self) -> str:
        return f"domain-inc:drift={self.drift:g}"

    def task_pool(self, spec: DatasetSpec, task_id: int) -> np.ndarray:
        return np.arange(spec.num_classes)

    def task_transform(
        self, spec: DatasetSpec, task_id: int, base: ClientTransform
    ) -> ClientTransform:
        if task_id == 0 or self.drift == 0.0:
            return base
        strength = self.drift * task_id / max(spec.num_tasks - 1, 1)
        domain_rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=spec.dataset_seed, spawn_key=(task_id,)
            )
        )
        channels = len(base.gain)
        gain = 1.0 + strength * domain_rng.normal(size=channels)
        bias = 0.5 * strength * domain_rng.normal(size=channels)
        # domain shift applied after the client transform:
        # (x * gc + bc) * gt + bt  ==  x * (gc gt) + (bc gt + bt)
        return ClientTransform(
            gain=(base.gain * gain).astype(np.float32),
            bias=(base.bias * gain + bias).astype(np.float32),
        )


class LabelShiftScenario(Scenario):
    """Class-incremental tasks with Dirichlet per-class sample skew.

    Task structure matches ``class-inc`` (contiguous class blocks), but a
    client's per-class budgets follow a ``Dir(alpha)`` draw — small alphas
    concentrate each client on a handful of classes with heavy sample
    imbalance, the canonical federated label-shift partition.
    """

    name = "label-shift"

    def __init__(self, alpha: float = 0.3):
        self.partitioner = DirichletPartitioner(alpha)
        self.alpha = self.partitioner.alpha

    @classmethod
    def from_spec(cls, args, kwargs):
        args = list(args)
        if args and args[0] == "dirichlet":
            args.pop(0)
        alpha = _numeric_arg("label-shift", "alpha", args, kwargs, default=0.3)
        return cls(alpha=alpha)

    def describe(self) -> str:
        return f"label-shift:dirichlet:{self.alpha:g}"


class QuantitySkewScenario(Scenario):
    """Class-incremental tasks with power-law sample-volume skew.

    Task structure matches ``class-inc`` (contiguous class blocks, 2–5
    classes per client), but each client's sample budget is drawn from the
    :class:`PowerLawPartitioner`'s ``P[f <= x] = x ** alpha`` law — the
    quantity-skew federation where participation value is dominated by a
    heavy-tailed minority of data-rich clients.
    """

    name = "quantity-skew"

    def __init__(self, alpha: float = 0.5):
        self.partitioner = PowerLawPartitioner(alpha)
        self.alpha = self.partitioner.alpha

    @classmethod
    def from_spec(cls, args, kwargs):
        args = list(args)
        if args and args[0] == "powerlaw":
            args.pop(0)
        alpha = _numeric_arg(
            "quantity-skew", "alpha", args, kwargs, default=0.5
        )
        return cls(alpha=alpha)

    def describe(self) -> str:
        return f"quantity-skew:powerlaw:{self.alpha:g}"


class BlurryScenario(Scenario):
    """Blurry task boundaries: class pools leak across adjacent tasks.

    Each task's pool is its own contiguous block plus
    ``round(overlap * classes_per_task)`` classes borrowed (deterministically
    per dataset and task) from the other blocks, so clients revisit classes
    outside the current task's nominal range — the i-Blurry-style setting
    where task identity is soft.
    """

    name = "blurry"

    def __init__(self, overlap: float = 0.2):
        if not 0.0 <= overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {overlap}")
        self.overlap = overlap

    @classmethod
    def from_spec(cls, args, kwargs):
        overlap = _numeric_arg("blurry", "overlap", args, kwargs, default=0.2)
        return cls(overlap=overlap)

    def describe(self) -> str:
        return f"blurry:overlap={self.overlap:g}"

    def task_pool(self, spec: DatasetSpec, task_id: int) -> np.ndarray:
        own = task_classes(spec, task_id)
        extra = int(round(self.overlap * spec.classes_per_task))
        foreign = np.setdiff1d(np.arange(spec.num_classes), own)
        if extra == 0 or len(foreign) == 0:
            return own
        pool_rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=spec.dataset_seed, spawn_key=(task_id, 1)
            )
        )
        borrowed = np.sort(
            pool_rng.choice(foreign, size=min(extra, len(foreign)),
                            replace=False)
        )
        return np.concatenate([own, borrowed])


class AsyncArrivalScenario(Scenario):
    """Staggered task arrival: each client's order is a cyclic shift.

    Instead of private random permutations, client ``c`` starts at a random
    offset and walks the task list in ring order.  At any aggregation round
    clients are spread across different tasks, so the server mixes updates
    from heterogeneous task stages — the asynchronous-arrival stressor.
    """

    name = "async-arrival"

    def task_order(
        self, num_tasks: int, rng: np.random.Generator
    ) -> np.ndarray:
        offset = int(rng.integers(num_tasks))
        return (np.arange(num_tasks) + offset) % num_tasks


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
SCENARIOS: dict[str, type[Scenario]] = {
    "class-inc": ClassIncrementalScenario,
    "domain-inc": DomainIncrementalScenario,
    "label-shift": LabelShiftScenario,
    "quantity-skew": QuantitySkewScenario,
    "blurry": BlurryScenario,
    "async-arrival": AsyncArrivalScenario,
}


def available_scenarios() -> list[str]:
    """Registered scenario family names (for the CLI catalogue)."""
    return sorted(SCENARIOS)


def _parse_range(raw: str, cast) -> tuple:
    """Parse a ``"LO-HI"`` range token (``"2-5"``, ``"0.5-1"``)."""
    low, sep, high = raw.partition("-")
    if not sep:
        raise ValueError(raw)
    return cast(low), cast(high)


def _numeric_arg(
    scenario: str,
    key: str,
    args: list[str],
    kwargs: dict[str, str],
    default: float,
) -> float:
    """Resolve one float parameter given positionally or as ``key=value``."""
    if args and key in kwargs:
        raise ValueError(
            f"scenario {scenario!r} got {key!r} both positionally and by name"
        )
    if len(args) > 1:
        raise ValueError(
            f"scenario {scenario!r} takes at most one argument, got {args}"
        )
    unknown = set(kwargs) - {key}
    if unknown:
        raise ValueError(
            f"scenario {scenario!r} got unknown parameters {sorted(unknown)}"
        )
    raw = args[0] if args else kwargs.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"scenario {scenario!r} has a non-numeric {key} argument {raw!r}"
        ) from None


def create_scenario(spec: "str | Scenario | None") -> Scenario:
    """Resolve a scenario from a spec string, or pass an instance through.

    Specs read ``"<family>[:<arg>|:<key>=<value>]..."`` — e.g.
    ``"class-inc"`` (the default), ``"domain-inc:drift=0.3"``,
    ``"label-shift:dirichlet:0.3"``, ``"blurry:overlap=0.2"``,
    ``"async-arrival"``.
    """
    if isinstance(spec, Scenario):
        return spec
    if spec is None:
        return ClassIncrementalScenario()
    parts = spec.split(":")
    name = parts[0]
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {spec!r}; known: {available_scenarios()}"
        )
    args: list[str] = []
    kwargs: dict[str, str] = {}
    for token in parts[1:]:
        if "=" in token:
            key, _, value = token.partition("=")
            kwargs[key] = value
        else:
            args.append(token)
    return SCENARIOS[name].from_spec(args, kwargs)
