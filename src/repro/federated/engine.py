"""Round execution engines: how a round's per-client work is scheduled.

The trainer expresses each phase of a round (local training + upload,
global-state download) as an order-preserving map of a function over the
active clients.  Engines decide how that map executes:

* :class:`SerialRoundEngine` — one client after another (the reference
  semantics);
* :class:`ThreadedRoundEngine` — clients run concurrently on a thread pool;
* :class:`BatchedRoundEngine` — same-architecture clients are **stacked**:
  the training step is captured once as a static graph tape and replayed
  with up to B clients' weights and minibatches along a leading axis, one
  batched forward/backward + flat SGD update per step
  (see :mod:`repro.federated.batched`);
* ``socket[:W]`` — :class:`~repro.serve.engine.SocketRoundEngine`, the one
  out-of-process engine: clients run in socket-connected worker processes
  with sticky client affinity (resolved lazily, so importing the federated
  core never imports :mod:`repro.serve`).

Clients are fully independent during a round (each owns its model, optimiser,
RNG and method state; servers are only touched between phases), so every
engine produces **bit-identical** results to the serial one — the per-client
float operations and their within-client order are unchanged (the batched
engine's stacked contractions are bit-identical per slice), and outputs are
reassembled in client order.  Only wall-clock time differs.

The trainer talks to an engine only through the hooks :class:`RoundEngine`
declares, each with an in-process default: ``rejects``/``bind`` (which
clients it can run, and the factory that rebuilds their task data),
``begin_task``, ``map``, ``share_state``, ``sharded_aggregator``,
``collect_clients`` and ``close``.  Every call that touches client state
reaches the clients through ``map``: the round phases, and the task
boundary's begin and end phases.  Phases mutate the clients they are
mapped over and return only their results; an engine that runs clients
elsewhere keeps the mutated replicas there, across tasks, and hands copies
back through ``collect_clients`` after each task's end phase, as the
trainer's checkpoint for worker-death recovery.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeVar,
)

import numpy as np

from ..obs import trace as _obs_trace
from .sharding import ShardedAggregator

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from .base import FederatedClient
    from .server import FedAvgServer

T = TypeVar("T")
R = TypeVar("R")


# ----------------------------------------------------------------------
# broadcast state handles
# ----------------------------------------------------------------------
class StateHandle:
    """Resolvable reference to one round's broadcast global state."""

    def resolve(self) -> Mapping[str, np.ndarray]:
        raise NotImplementedError

    def release(self) -> None:
        """Free any backing resources (parent-side, idempotent)."""


class LocalStateHandle(StateHandle):
    """In-process passthrough (the serial, thread and batched engines)."""

    def __init__(self, state: Mapping[str, np.ndarray]):
        self._state = state

    def resolve(self) -> Mapping[str, np.ndarray]:
        return self._state


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------
class RoundEngine:
    """Order-preserving executor of per-client round work.

    Declares every hook the trainer and CLI call, each with the in-process
    default; an engine overrides only what it does differently.
    """

    name = "base"

    def rejects(self, method: str) -> str | None:
        """Why this engine cannot run ``method``'s clients (``None``: it can).

        The CLI asks before any client exists; :meth:`bind` asks again for
        every method among the trainer's clients.
        """
        return None

    def bind(
        self, clients: Sequence[FederatedClient], data_factory=None
    ) -> None:
        """Accept the trainer's clients, once, before the first round.

        Raises :class:`ValueError` for a method :meth:`rejects` refuses.
        ``data_factory`` (a picklable
        :class:`~repro.data.scenario.ClientDataFactory`) rebuilds client
        task data; in-process engines share the parent's data and ignore it.
        """
        for method in sorted({client.method_name for client in clients}):
            reason = self.rejects(method)
            if reason is not None:
                raise ValueError(
                    f"the {self.name} engine cannot run {method!r}: {reason}"
                )

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R | None]:
        """Apply ``fn`` to every item; results follow the input order.

        In-process engines never lose an item.  An engine whose workers can
        die returns ``None`` in a lost item's slot instead of raising; the
        trainer drops that client from the round and records it as lost.

        A phase with a true ``task_boundary`` attribute (the trainer's begin
        and end phases) runs in item order on in-process engines: some
        methods' ``begin_task``/``end_task`` feed the live server in client
        order (FLCN's sample buffer, FedWEIT's adaptive registry).
        """
        raise NotImplementedError

    def begin_task(self, position: int) -> None:
        """Task-boundary hook, called before the begin phase (the socket
        engine admits waiting workers and rebalances its clients here)."""

    def share_state(self, state: Mapping[str, np.ndarray]) -> StateHandle:
        """Wrap a global state for broadcast to this engine's executors."""
        return LocalStateHandle(state)

    def sharded_aggregator(
        self, server: FedAvgServer, shards: int
    ) -> ShardedAggregator:
        """The aggregator for a round split across ``shards`` accumulators
        (default: accumulate the shards one after another).

        This hook is how an engine offers its in-process pool to the shard
        fold; it is not a capability query.  Only
        :class:`ThreadedRoundEngine` overrides it: shard groups fold on its
        threads, bit-identical and faster in wall time on large states
        (222 -> 167 ms for 32 clients x 4.8 MB over 8 shards on a 2-CPU
        host).  An out-of-process engine keeps this default, because its
        ``map`` would pickle a closure over the round's live updates.
        """
        return ShardedAggregator(server, shards)

    def collect_clients(self) -> list[FederatedClient]:
        """Copies of the client replicas this engine holds, newer than the
        trainer's own (none in-process: phases mutate the trainer's)."""
        return []

    def close(self) -> None:
        """Release any execution resources (idempotent)."""

    def __enter__(self) -> "RoundEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False


class SerialRoundEngine(RoundEngine):
    """Clients run one after another — the reference execution order."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


class ThreadedRoundEngine(RoundEngine):
    """Clients of a round run concurrently on a shared thread pool."""

    name = "thread"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            # imported here: it loads ``logging``, which no other engine needs
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="round-engine"
            )
        return self._executor

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if len(items) <= 1 or getattr(fn, "task_boundary", False):
            return [fn(item) for item in items]
        tracer = _obs_trace.TRACER
        if not tracer.enabled:
            return list(self._pool().map(fn, items))
        # pool threads have empty span stacks: parent their spans under
        # the caller's innermost open span so traces stay nested
        ctx = tracer.current_context()

        def run(item: T) -> R:
            with tracer.bind(ctx):
                return fn(item)

        return list(self._pool().map(run, items))

    def sharded_aggregator(
        self, server: FedAvgServer, shards: int
    ) -> ShardedAggregator:
        # shard accumulation rides this engine's thread pool (identical
        # math — regression-tested)
        return ShardedAggregator(server, shards, engine=self)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class BatchedRoundEngine(RoundEngine):
    """Same-architecture clients run stacked along a leading batch axis.

    A phase callable may expose a ``prepare_batched(engine, items)`` hook;
    the engine calls it once with the whole item list before the ordinary
    per-item map.  The trainer's train phase uses the hook to run all
    participants' local SGD through one captured graph tape
    (:func:`repro.federated.batched.train_clients_batched`) in the fewest
    balanced chunks of at most ``batch_clients``, or, with None, of
    :data:`~repro.federated.batched.DEFAULT_CHUNK_CLIENTS`; the per-item
    calls then only package results.
    Phases without the hook (the receive phase) fall through to plain
    serial execution, so the ``map`` contract is unchanged.

    Only batch-safe methods may run here (:meth:`rejects`).
    """

    name = "batched"

    def __init__(self, batch_clients: int | None = None):
        if batch_clients is not None and batch_clients < 1:
            raise ValueError(
                f"need at least one client per batch, got {batch_clients}"
            )
        # imported when the engine is built, so that no round imports a module
        from .batched import train_clients_batched

        self.batch_clients = batch_clients
        self._train = train_clients_batched

    def rejects(self, method: str) -> str | None:
        from .registry import BATCH_SAFE_METHODS

        if method in BATCH_SAFE_METHODS:
            return None
        return (
            f"its local step is not a pure loss→backward→SGD update; "
            f"batch-safe methods: {', '.join(sorted(BATCH_SAFE_METHODS))}"
        )

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        prepare = getattr(fn, "prepare_batched", None)
        if prepare is not None:
            prepare(self, items)
        return [fn(item) for item in items]

    def train_clients(self, clients, iterations: int) -> None:
        """Run batched local training for ``clients`` (called by the train
        phase's ``prepare_batched`` hook)."""
        self._train(clients, iterations, self.batch_clients)


ENGINES: dict[str, type[RoundEngine]] = {
    "serial": SerialRoundEngine,
    "thread": ThreadedRoundEngine,
    "batched": BatchedRoundEngine,
}

#: Every engine spec name ``create_engine`` accepts, with its argument
#: shape — the "socket" engine lives in :mod:`repro.serve.engine` and is
#: resolved lazily to keep the federated core import-light.
ENGINE_SPECS: tuple[str, ...] = (
    "serial", "thread[:W]", "batched[:B]", "socket[:W]",
)


def create_engine(
    engine: str | RoundEngine, max_workers: int | None = None
) -> RoundEngine:
    """Resolve an engine instance from a spec string, or pass one through.

    Specs read ``"<name>[:<arg>]"`` — ``"serial"``, ``"thread"``,
    ``"thread:4"``, ``"batched"``, ``"batched:64"``, ``"socket"``,
    ``"socket:4"``.  The argument is a
    worker count for thread/socket engines and the most clients per chunk
    for the batched engine (default:
    :data:`~repro.federated.batched.DEFAULT_CHUNK_CLIENTS`, 8).
    ``max_workers`` is the fallback worker count when the spec
    does not carry one; ``serial`` takes no argument.  Unknown or malformed
    specs raise :class:`ValueError` with the full catalogue.
    """
    if isinstance(engine, RoundEngine):
        return engine
    name, _, arg = engine.partition(":")
    known = sorted(set(ENGINES) | {"socket"})
    if name not in known:
        raise ValueError(
            f"unknown round engine {engine!r}; known: {known}"
        )
    workers = max_workers if name != "batched" else None
    if arg:
        if name == "serial":
            raise ValueError("the serial engine takes no worker count")
        try:
            workers = int(arg)
        except ValueError:
            raise ValueError(
                f"engine spec {engine!r} has a non-integer worker count "
                f"{arg!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
    if name == "serial":
        return SerialRoundEngine()
    if name == "thread":
        return ThreadedRoundEngine(max_workers=workers)
    if name == "batched":
        return BatchedRoundEngine(batch_clients=workers)
    # imported lazily: repro.serve depends on this module
    from ..serve.engine import SocketRoundEngine

    return SocketRoundEngine(max_workers=workers)
