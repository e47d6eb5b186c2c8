"""Model registry and factory.

Maps the model names used throughout the experiment configs to constructor
functions, and records the architecture *family* each model represents in the
paper's Figure 9 taxonomy (depth / multi-path / width / feature-map
exploitation / attention / lightweight).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .. import _load

if TYPE_CHECKING:
    from .base import ImageClassifier

ModelFactory = Callable[..., "ImageClassifier"]

#: name -> factory, or the ``module:attr`` naming it until the model is
#: first built: building a SixCNN imports no other architecture's module.
_REGISTRY: dict[str, ModelFactory | str] = {}
_FAMILIES: dict[str, str] = {}


def register_model(name: str, family: str) -> Callable[[ModelFactory], ModelFactory]:
    """Decorator/registrar adding a factory under ``name`` with its family tag."""

    def decorator(factory: ModelFactory) -> ModelFactory:
        if name in _REGISTRY:
            raise ValueError(f"model {name!r} already registered")
        _REGISTRY[name] = factory
        _FAMILIES[name] = family
        return factory

    return decorator


def _register_defaults() -> None:
    for name, family, factory in (
        ("six_cnn", "baseline", "repro.models.six_cnn:SixCNN"),
        ("resnet18", "depth", "repro.models.resnet:resnet18"),
        ("resnet152", "depth", "repro.models.resnet:resnet152"),
        ("wide_resnet", "width", "repro.models.resnet:wide_resnet"),
        ("resnext", "width", "repro.models.resnet:resnext"),
        ("inception", "width", "repro.models.inception:inception"),
        ("densenet", "multi-path", "repro.models.densenet:densenet"),
        ("senet18", "feature-map", "repro.models.senet:senet18"),
        ("mobilenet_v2", "lightweight", "repro.models.mobilenet:mobilenet_v2"),
        ("mobilenet_v2_x2", "lightweight",
         "repro.models.mobilenet:mobilenet_v2_x2"),
        ("shufflenet_v2", "lightweight",
         "repro.models.shufflenet:shufflenet_v2"),
    ):
        register_model(name, family)(factory)


_register_defaults()

#: The eight networks evaluated in Figure 9 (six architecture categories).
FIG9_MODELS: tuple[str, ...] = (
    "wide_resnet",
    "resnext",
    "resnet152",
    "senet18",
    "mobilenet_v2",
    "mobilenet_v2_x2",
    "shufflenet_v2",
    "densenet",
)


def available_models() -> list[str]:
    """Names of all registered models."""
    return sorted(_REGISTRY)


def model_family(name: str) -> str:
    """Architecture family (Fig. 9 taxonomy) of a registered model."""
    if name not in _FAMILIES:
        raise KeyError(f"unknown model {name!r}; known: {available_models()}")
    return _FAMILIES[name]


def build_model(
    name: str,
    num_classes: int,
    input_shape: tuple[int, int, int] = (3, 16, 16),
    rng: np.random.Generator | None = None,
    **kwargs,
) -> ImageClassifier:
    """Instantiate a registered model by name."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {available_models()}")
    factory = _REGISTRY[name]
    if isinstance(factory, str):
        factory = _REGISTRY[name] = _load(factory)
    return factory(num_classes, input_shape=input_shape, rng=rng, **kwargs)
