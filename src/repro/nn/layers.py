"""Stateful neural-network modules.

:class:`Module` provides parameter registration, recursive traversal,
``train()`` / ``eval()`` switching and ``state_dict`` round-tripping, closely
mirroring the PyTorch API used by the original IRN implementation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import as_rng

__all__ = [
    "Parameter",
    "Module",
    "ModuleList",
    "Sequential",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "GELU",
]


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter of a module."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are registered automatically and show up in
    :meth:`parameters`, :meth:`named_parameters` and :meth:`state_dict`.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # -------------------------------------------------------------- #
    # Registration
    # -------------------------------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (used by containers)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -------------------------------------------------------------- #
    # Traversal
    # -------------------------------------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """Return all parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self) -> None:
        """Clear the gradient of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    # -------------------------------------------------------------- #
    # Mode switching
    # -------------------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # -------------------------------------------------------------- #
    # Serialization
    # -------------------------------------------------------------- #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat name -> array mapping of all parameters (copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from a :meth:`state_dict` mapping."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ConfigurationError(
                f"state_dict mismatch; missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ConfigurationError(
                    f"shape mismatch for '{name}': {value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    # -------------------------------------------------------------- #
    # Forward
    # -------------------------------------------------------------- #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list container whose elements are registered as child modules."""

    def __init__(self, modules: list[Module] | None = None) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> None:
        self.add_module(str(len(self._items)), module)
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.add_module(str(len(self._items)), module)
            self._items.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._items:
            x = module(x)
        return x


class Linear(Module):
    """Affine transformation ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        rng = as_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Dense lookup table mapping integer ids to vectors.

    ``padding_idx`` (if given) is the row set to zero at construction and by
    :meth:`load_pretrained`.  Nothing freezes it afterwards: a lookup of the
    padding id sends its gradient to that row like to any other, so every
    model whose padding tokens reach its loss (all the pre-padded ones do)
    trains the row.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: int | None = None,
        rng: "int | np.random.Generator | None" = None,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        rng = as_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal((num_embeddings, embedding_dim), rng, std=init_std)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)

    def load_pretrained(self, vectors: np.ndarray, freeze: bool = False) -> None:
        """Overwrite the table with pre-trained ``vectors`` (e.g. item2vec)."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape != self.weight.data.shape:
            raise ConfigurationError(
                f"pretrained embedding shape {vectors.shape} does not match "
                f"{self.weight.data.shape}"
            )
        self.weight.data = vectors.copy()
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0
        if freeze:
            self.weight.requires_grad = False


class LayerNorm(Module):
    """Layer normalisation over the last dimension (one graph node, :func:`F.layer_norm`)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.normalized_shape = normalized_shape
        self.weight = Parameter(np.ones((normalized_shape,)))
        self.bias = Parameter(np.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, self.eps)


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, p: float = 0.1, rng: "int | np.random.Generator | None" = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = as_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class ReLU(Module):
    """ReLU activation as a module (for :class:`Sequential`)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    """GELU activation as a module (for :class:`Sequential`)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)
