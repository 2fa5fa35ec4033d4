"""Parameter registration and the linear layer shared by all components."""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .tensor import Tensor, linear


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    lim = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape)


class Module:
    """Minimal module tree: tracks parameters and submodules by attribute.

    Tensors assigned with requires_grad=True register as parameters;
    Module and ModuleList attributes register as children.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        self._parameters.pop(name, None)
        self._modules.pop(name, None)
        if isinstance(value, Tensor) and value.requires_grad:
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield prefix + name, p
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix + name + ".")

    def parameters(self) -> list[Tensor]:
        seen: set[int] = set()
        out = []
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        return out

    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        if set(own) != set(state):
            missing = sorted(set(own) - set(state))
            extra = sorted(set(state) - set(own))
            raise ValueError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, p in own.items():
            arr = np.asarray(state[name])
            if arr.dtype.kind != "f":
                raise ValueError(f"{name} holds {arr.dtype}, not floats")
            arr = arr.astype(p.data.dtype, copy=False)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self._items: list[Module] = []
        for m in mods:
            self.append(m)

    def append(self, mod: Module) -> None:
        setattr(self, str(len(self._items)), mod)
        self._items.append(mod)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class Linear(Module):
    """y = x @ W (+ b); weight shape is (n_in, n_out)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.weight = Tensor(glorot_uniform((n_in, n_out), n_in, n_out, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(n_out), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)
