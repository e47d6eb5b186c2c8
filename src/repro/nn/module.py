"""Module / Parameter abstractions, mirroring the familiar torch.nn API.

A :class:`Module` owns :class:`Parameter` leaves and child modules, registered
automatically on attribute assignment.  State dicts are flat
``name -> numpy array`` mappings which the federated layer serialises,
aggregates and ships between clients and the server.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor: always created with ``requires_grad=True``."""

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)
        # graph tapes captured on this instance, and the capture refusals
        # (repro.nn.graph.model_tape)
        object.__setattr__(self, "_tapes", {})

    def __getstate__(self):
        # tapes are bound to this instance's tensors: they never travel, and
        # an unpickled or copied module captures its own
        state = self.__dict__.copy()
        del state["_tapes"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        object.__setattr__(self, "_tapes", {})

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BN running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for module_name, module in self.named_modules(prefix):
            for name, param in module._parameters.items():
                full = f"{module_name}.{name}" if module_name else name
                yield full, param

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for module_name, module in self.named_modules(prefix):
            for name, buf in module._buffers.items():
                full = f"{module_name}.{name}" if module_name else name
                yield full, buf

    # ------------------------------------------------------------------
    # train / eval, grads
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def flat_parameter_view(self):
        """A :class:`~repro.nn.vector.FlatParamView` over this module's
        parameters in ``named_parameters`` order (the canonical flat layout
        used by replayed optimiser steps and the batched round engine)."""
        from .vector import FlatParamView

        return FlatParamView(self.parameters())

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters and buffers, keyed by dotted path."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters and buffers in place from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        missing = []
        for name, param in params.items():
            if name not in state:
                missing.append(name)
                continue
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {param.data.shape}"
                )
            param.data[...] = value
        if missing:
            raise KeyError(f"state dict missing parameters: {missing}")
        for module_name, module in self.named_modules():
            for name in module._buffers:
                full = f"{module_name}.{name}" if module_name else name
                if full in state:
                    module._buffers[name][...] = state[full]
                    getattr(module, name)[...] = state[full]

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for module in self.modules():
            fn(module)
        return self


class Sequential(Module):
    """Chain of sub-modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])


class ModuleList(Module):
    """Indexed container of sub-modules (no implicit forward)."""

    def __init__(self, modules=()):
        super().__init__()
        self._order: list[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])
