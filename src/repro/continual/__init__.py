"""Continual-learning baselines (the six CL methods compared in Fig. 4)."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".agscl": ("AGSCLStrategy",),
    ".base": ("ContinualStrategy", "FinetuneStrategy"),
    ".bcn": ("BCNStrategy",),
    ".buffer": ("EpisodicMemory", "TaskMemory"),
    ".co2l": ("Co2LStrategy",),
    ".ewc": ("EWCStrategy",),
    ".gem": ("GEMStrategy",),
    ".mas": ("MASStrategy",),
})

__all__ = [
    "AGSCLStrategy",
    "BCNStrategy",
    "Co2LStrategy",
    "ContinualStrategy",
    "EWCStrategy",
    "EpisodicMemory",
    "FinetuneStrategy",
    "GEMStrategy",
    "MASStrategy",
    "TaskMemory",
]
