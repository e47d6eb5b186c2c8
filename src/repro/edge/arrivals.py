"""Stochastic arrival and churn processes for simulated populations.

Deployment-scale federations are not a fixed roster: clients discover the
service over time (heavy-tailed install/arrival bursts) and alternate
between connected sessions and offline gaps.  A :class:`PopulationModel`
describes that process; :meth:`PopulationModel.schedule` draws one concrete
:class:`PopulationSchedule` — per-client first-arrival times plus optional
per-client session/off-time durations — which the event-driven simulators
in :mod:`repro.federated.simulation` unroll into arrival/departure events.

Draws follow the repo's ``SeedSequence`` sub-RNG discipline: each purpose
(arrivals, session lengths, off times) gets its own
``SeedSequence(entropy=seed, spawn_key=(purpose,))`` stream, so schedules
are reproducible, order-independent, and O(population) to construct.

Models are addressed by compact specs (the CLI's ``--population`` flag):

* ``"fixed"`` — everyone present from ``t=0``, no churn: the **degenerate**
  model under which the event-driven trainer must reproduce the synchronous
  trainer's round stream bit-identically;
* ``"uniform:<T>"`` — arrivals uniform over ``[0, T)``;
* ``"pareto:<alpha>"`` — heavy-tailed (Lomax) inter-arrival gaps with shape
  ``alpha > 1`` (mean gap ``scale / (alpha - 1)``);
* ``"lognormal:<sigma>"`` — log-normal inter-arrival gaps
  ``scale * exp(sigma * N(0, 1))``.

Every family except ``fixed`` accepts ``,scale=<s>`` (gap/horizon scale in
simulated seconds) and ``,churn=<on>/<off>`` (mean session length / mean
offline gap; per-client durations are log-normal around those means, and
sessions repeat cyclically).  Example::

    pareto:1.5,scale=0.2,churn=300/600
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: ``spawn_key`` purposes of the model's sub-RNG streams.
_ARRIVALS, _SESSIONS, _OFFTIMES = 0, 1, 2

#: Dispersion of per-client session/off-time durations around their means.
CHURN_SIGMA = 1.0


@dataclass(frozen=True)
class PopulationSchedule:
    """One drawn realization of a population's arrival/churn process.

    ``arrival[i]`` is client ``i``'s first-arrival time.  With churn,
    client ``i`` repeats a cycle of ``session[i]`` seconds online followed
    by ``offtime[i]`` seconds offline, starting at its arrival; without
    churn both arrays are ``None`` and clients stay online forever.
    """

    arrival: np.ndarray
    session: np.ndarray | None = None
    offtime: np.ndarray | None = None

    @property
    def num_clients(self) -> int:
        return len(self.arrival)

    @property
    def has_churn(self) -> bool:
        return self.session is not None

    def departure_after(self, client_id: int, arrival_time: float) -> float:
        """When the session starting at ``arrival_time`` ends."""
        if self.session is None:
            return float("inf")
        return arrival_time + float(self.session[client_id])

    def return_after(self, client_id: int, departure_time: float) -> float:
        """When the client comes back online after leaving."""
        if self.offtime is None:
            return float("inf")
        return departure_time + float(self.offtime[client_id])

    def present_at(self, t: float) -> np.ndarray:
        """Boolean presence mask over the population at time ``t``."""
        arrived = self.arrival <= t
        if self.session is None:
            return arrived
        cycle = self.session + self.offtime
        phase = (t - self.arrival) % cycle
        return arrived & (phase < self.session)


@dataclass(frozen=True)
class PopulationModel:
    """A parameterized arrival/churn process (see the module docstring)."""

    family: str
    shape: float = 0.0
    scale: float = 1.0
    churn_on: float | None = None
    churn_off: float | None = None

    def __post_init__(self):
        if self.family not in ("fixed", "uniform", "pareto", "lognormal"):
            raise ValueError(f"unknown population family {self.family!r}")
        # NaN passes every range check below, and infinite values either
        # overflow the draws or schedule nobody
        for name, value in (("shape", self.shape), ("scale", self.scale),
                            ("churn session mean", self.churn_on),
                            ("churn off-time mean", self.churn_off)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"population {name} must be finite, got {value}")
        if self.family == "pareto" and self.shape <= 1.0:
            raise ValueError(
                f"pareto arrivals need shape alpha > 1 (finite mean gap), "
                f"got {self.shape:g}"
            )
        if self.family == "lognormal" and self.shape < 0:
            raise ValueError(f"lognormal sigma must be >= 0, got {self.shape:g}")
        if self.family == "uniform" and self.shape <= 0:
            raise ValueError(
                f"uniform arrivals need a positive horizon, got {self.shape:g}"
            )
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale:g}")
        if (self.churn_on is None) != (self.churn_off is None):
            raise ValueError("churn needs both a session and an off-time mean")
        if self.churn_on is not None and (
            self.churn_on <= 0 or self.churn_off <= 0
        ):
            raise ValueError(
                f"churn means must be positive, got "
                f"{self.churn_on:g}/{self.churn_off:g}"
            )

    @property
    def has_churn(self) -> bool:
        return self.churn_on is not None

    @property
    def degenerate(self) -> bool:
        """True for the everyone-at-t=0, no-churn model: the regime where
        the event-driven trainer collapses to the synchronous one."""
        return self.family == "fixed" and not self.has_churn

    def describe(self) -> str:
        """Canonical spec string (stable across runs; used in cache keys)."""
        if self.family == "fixed":
            base = "fixed"
        else:
            base = f"{self.family}:{self.shape:g}"
            if self.scale != 1.0:
                base += f",scale={self.scale:g}"
        if self.has_churn:
            base += f",churn={self.churn_on:g}/{self.churn_off:g}"
        return base

    def _rng(self, seed: int, purpose: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(purpose,))
        )

    def schedule(self, num_clients: int, seed: int = 0) -> PopulationSchedule:
        """Draw a concrete per-client schedule for ``num_clients`` clients."""
        if num_clients < 1:
            raise ValueError(f"need at least one client, got {num_clients}")
        if self.family == "fixed":
            arrival = np.zeros(num_clients)
        elif self.family == "uniform":
            rng = self._rng(seed, _ARRIVALS)
            arrival = rng.uniform(0.0, self.shape * self.scale, num_clients)
        else:
            rng = self._rng(seed, _ARRIVALS)
            if self.family == "pareto":
                gaps = self.scale * rng.pareto(self.shape, num_clients)
            else:
                gaps = self.scale * np.exp(
                    self.shape * rng.standard_normal(num_clients)
                )
            arrival = np.cumsum(gaps)
        session = offtime = None
        if self.has_churn:
            # log-normal durations whose *mean* is the spec's value:
            # E[exp(sigma z - sigma^2 / 2)] = 1
            correction = np.exp(-0.5 * CHURN_SIGMA**2)
            draws = self._rng(seed, _SESSIONS).standard_normal(num_clients)
            session = self.churn_on * correction * np.exp(CHURN_SIGMA * draws)
            draws = self._rng(seed, _OFFTIMES).standard_normal(num_clients)
            offtime = self.churn_off * correction * np.exp(CHURN_SIGMA * draws)
        return PopulationSchedule(
            arrival=arrival, session=session, offtime=offtime
        )


def create_population(
    population: str | PopulationModel,
) -> PopulationModel:
    """Resolve a :class:`PopulationModel` from a spec, or pass one through.

    Specs: ``"fixed"``, ``"uniform:<T>"``, ``"pareto:<alpha>"``,
    ``"lognormal:<sigma>"`` — optionally followed by ``,scale=<s>`` and/or
    ``,churn=<on>/<off>`` (not on ``fixed``).
    """
    if isinstance(population, PopulationModel):
        return population
    head, *extras = population.split(",")
    name, _, main = head.partition(":")
    if name not in ("fixed", "uniform", "pareto", "lognormal"):
        raise KeyError(
            f"unknown population family {population!r}; known: "
            f"['fixed', 'lognormal', 'pareto', 'uniform']"
        )
    kwargs: dict = {}
    for extra in extras:
        key, eq, value = extra.partition("=")
        if not eq or key not in ("scale", "churn"):
            raise ValueError(
                f"population spec {population!r} has an unknown option "
                f"{extra!r}; options are 'scale=<s>' and 'churn=<on>/<off>'"
            )
        try:
            if key == "scale":
                kwargs["scale"] = float(value)
            else:
                on, sep, off = value.partition("/")
                if not sep:
                    raise ValueError
                kwargs["churn_on"] = float(on)
                kwargs["churn_off"] = float(off)
        except ValueError:
            raise ValueError(
                f"population spec {population!r} has a malformed value for "
                f"{key!r}: {value!r}"
            ) from None
    if name == "fixed":
        if main or "scale" in kwargs:
            raise ValueError(
                "the fixed population takes no argument (everyone arrives "
                "at t=0); churn is allowed: 'fixed,churn=<on>/<off>'"
            )
        return PopulationModel(family="fixed", **kwargs)
    if not main:
        raise ValueError(
            f"population family {name!r} needs an argument, e.g. "
            f"'pareto:1.5', 'lognormal:0.8' or 'uniform:600'"
        )
    try:
        shape = float(main)
    except ValueError:
        raise ValueError(
            f"population spec {population!r} has a non-numeric argument "
            f"{main!r}"
        ) from None
    return PopulationModel(family=name, shape=shape, **kwargs)
