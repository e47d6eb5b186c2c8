"""Pluggable scoring of signature-task weights (the `--selector` seam).

FedKNOW's knowledge extractor keeps the global top-``rho`` *scored* weights
of a trained model (Eq. 1).  The score function is this seam:

* ``magnitude`` — ``|w_j|``, the paper's weight-magnitude criterion and the
  default.  Bit-identical to the pre-seam extractor.
* ``fisher`` — the diagonal-Laplace saliency ``F_j * w_j**2`` (the leading
  term of the loss increase when ``w_j`` is pruned to zero, optimal brain
  damage style), with ``F_j`` the empirical Fisher diagonal estimated on a
  sample of the task's training data.
* ``hybrid:<mix>`` — a convex blend of the two criteria, each normalized by
  its mean so the mixing weight is scale-free; ``hybrid:0`` ranks like
  magnitude, ``hybrid:1`` like fisher.

Scores only *rank*; the extractor's tie-aware top-k, per-parameter index
splitting and wire format are untouched by the choice of selector.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import get_rng

#: The spec strings `repro list` advertises and `--selector` accepts.
SELECTOR_SPECS = ("magnitude", "fisher", "hybrid:<mix>")


class SignatureSelector:
    """Scores every model weight; the extractor keeps the top-``rho``."""

    def scores(self, model, task, rng=None) -> np.ndarray:
        """A flat score per weight, canonical ``named_parameters`` order."""
        raise NotImplementedError

    def describe(self) -> str:
        """The canonical spec string that recreates this selector."""
        raise NotImplementedError


class MagnitudeSelector(SignatureSelector):
    """The paper's criterion: absolute weight magnitude (Eq. 1)."""

    def scores(self, model, task, rng=None) -> np.ndarray:
        return np.concatenate(
            [np.abs(p.data).ravel() for _, p in model.named_parameters()]
        )

    def describe(self) -> str:
        return "magnitude"


class FisherSelector(SignatureSelector):
    """Diagonal-Laplace saliency ``F_j * w_j**2``.

    ``max_samples`` caps the Fisher estimate's sample count (drawn without
    replacement from the task's training set when it is larger); estimation
    rides the batched tape replay, so the cost is a handful of batched
    steps once per task.
    """

    def __init__(self, max_samples: int = 256, chunk: int = 32):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        # imported here, so that a magnitude selector, or listing the
        # selectors, loads no ``repro.nn`` module
        from .fisher import empirical_fisher_diagonal

        self.max_samples = max_samples
        self.chunk = chunk
        self._estimate = empirical_fisher_diagonal

    def scores(self, model, task, rng=None) -> np.ndarray:
        x, y = task.train_x, task.train_y
        if len(y) > self.max_samples:
            keep = get_rng(rng).choice(len(y), self.max_samples, replace=False)
            keep.sort()
            x, y = x[keep], y[keep]
        fisher = self._estimate(
            model, x, y, task.class_mask(), chunk=self.chunk
        )
        weights = np.concatenate(
            [p.data.ravel() for _, p in model.named_parameters()]
        ).astype(np.float64)
        return fisher * weights * weights

    def describe(self) -> str:
        return "fisher"


class HybridSelector(SignatureSelector):
    """Convex blend of mean-normalized magnitude and Fisher saliencies."""

    def __init__(self, mix: float = 0.5, max_samples: int = 256,
                 chunk: int = 32):
        if not 0.0 <= mix <= 1.0:
            raise ValueError(f"hybrid mix must be in [0, 1], got {mix}")
        self.mix = float(mix)
        self._magnitude = MagnitudeSelector()
        self._fisher = FisherSelector(max_samples=max_samples, chunk=chunk)

    @staticmethod
    def _normalized(scores: np.ndarray) -> np.ndarray:
        mean = scores.mean()
        return scores / mean if mean > 0 else scores

    def scores(self, model, task, rng=None) -> np.ndarray:
        magnitude = self._magnitude.scores(model, task).astype(np.float64)
        fisher = self._fisher.scores(model, task, rng=rng)
        return ((1.0 - self.mix) * self._normalized(magnitude)
                + self.mix * self._normalized(fisher))

    def describe(self) -> str:
        return f"hybrid:{self.mix:g}"


def create_selector(spec=None) -> SignatureSelector:
    """Build a selector from a spec string (``None`` means ``magnitude``).

    Raises ``ValueError`` naming the known specs for anything unknown, so
    CLI validation can surface the catalogue.
    """
    if spec is None:
        return MagnitudeSelector()
    if isinstance(spec, SignatureSelector):
        return spec
    name, _, arg = str(spec).partition(":")
    if name == "magnitude" and not arg:
        return MagnitudeSelector()
    if name == "fisher" and not arg:
        return FisherSelector()
    if name == "hybrid":
        if not arg:
            raise ValueError(
                f"selector spec {spec!r} needs a mix in [0, 1] "
                f"(e.g. hybrid:0.5); known selectors: "
                f"{', '.join(SELECTOR_SPECS)}"
            )
        try:
            mix = float(arg)
        except ValueError:
            raise ValueError(
                f"selector spec {spec!r} has a non-numeric mix; known "
                f"selectors: {', '.join(SELECTOR_SPECS)}"
            ) from None
        return HybridSelector(mix=mix)
    raise ValueError(
        f"unknown selector {spec!r}; known selectors: "
        f"{', '.join(SELECTOR_SPECS)}"
    )
