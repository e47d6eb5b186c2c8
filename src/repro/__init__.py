"""FedKNOW reproduction (ICDE 2023).

A from-scratch reproduction of *FedKNOW: Federated Continual Learning with
Signature Task Knowledge Integration at Edge*, including its numpy deep-
learning substrate (:mod:`repro.nn`), model zoo (:mod:`repro.models`),
synthetic dataset benchmarks (:mod:`repro.data`), the FedKNOW algorithm
(:mod:`repro.core`), all eleven baselines (:mod:`repro.continual`,
:mod:`repro.federated`), the edge-device simulation (:mod:`repro.edge`) and
the per-figure experiment harness (:mod:`repro.experiments`).

Imports load only what they name.  Each package lists where its public
names live and exports them through PEP 562 module hooks built by
:func:`_lazy_exports`, so ``from repro.federated import PopulationSimulator``
loads the simulator's modules and nothing else::

    __getattr__, __dir__ = _lazy_exports(__name__, {
        ".simulation": ("PopulationSimulator", "SimReport"),
        ".trainer": ("FederatedTrainer",),
    })

Registries keyed by name (methods, models, figures) hold ``"module:attr"``
strings and :func:`_load` them when a run asks for that name.  The helpers
live here, in the one module every process imports.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from importlib import import_module
from types import ModuleType

__version__ = "1.0.0"


def _lazy_exports(
    owner: str,
    table: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for the module ``owner``.

    ``table`` maps a module, relative to ``owner``'s package, to the names
    it exports; ``submodules`` names child modules of a package exported as
    themselves.  A name is imported on first access and then bound on
    ``owner``, so later lookups never reach the hook.
    """
    module = sys.modules[owner]
    where = {name: source for source, names in table.items() for name in names}
    where.update((name, None) for name in submodules)
    # ``repro.models.inception`` is the factory, not the module it lives in,
    # but importing a submodule binds it on its package under its own name
    shadowed = {name for name, source in where.items() if source == f".{name}"}
    if shadowed:
        module.__class__ = _keeping(shadowed)

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        source = where[name]
        value = (
            import_module(f"{owner}.{name}") if source is None
            else getattr(import_module(source, module.__package__), name)
        )
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(where))

    return __getattr__, __dir__


def _keeping(exports: set[str]) -> type[ModuleType]:
    """A module class that does not let a submodule bind over ``exports``."""

    class Package(ModuleType):
        def __setattr__(self, name: str, value) -> None:
            if name in exports and isinstance(value, ModuleType):
                return
            super().__setattr__(name, value)

    return Package


def _load(target: str):
    """The object a ``"package.module:attr"`` string names, imported now."""
    module, _, attr = target.partition(":")
    return getattr(import_module(module), attr)


class _LazyTable(Mapping):
    """A read-only ``name -> object`` table whose values are ``module:attr``
    strings, each imported when it is looked up."""

    def __init__(self, targets: Mapping[str, str]):
        self._targets = dict(targets)

    def __getitem__(self, name: str):
        return _load(self._targets[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._targets)

    def __len__(self) -> int:
        return len(self._targets)


__getattr__, __dir__ = _lazy_exports(
    __name__, {},
    submodules=("core", "data", "edge", "federated", "metrics", "models",
                "nn", "utils"),
)

__all__ = [
    "core",
    "data",
    "edge",
    "federated",
    "metrics",
    "models",
    "nn",
    "utils",
    "__version__",
]
