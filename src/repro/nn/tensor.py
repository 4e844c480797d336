"""Reverse-mode automatic differentiation on top of NumPy arrays.

The :class:`Tensor` class records the computation graph as operations are
applied and computes gradients with a single reverse topological sweep in
:meth:`Tensor.backward`, which frees the graph as it goes: a graph runs
backward once, and only leaves keep their gradients.  Gradients are
broadcasting-aware: an operand that was broadcast during the forward pass
receives a gradient summed back to its original shape.

Only the operations required by the models in this repository are
implemented, but they are implemented generally (arbitrary shapes, arbitrary
broadcasting) so the layer code reads like ordinary PyTorch-style NumPy.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
]

# Grad mode is thread-local so the evaluation protocol's rollout threads can
# run inference without one thread's ``no_grad`` exit re-enabling graph
# construction under another mid-forward.  Each
# thread starts with grad enabled, matching the old module-global default.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph (per thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (the inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading axes that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """Whether ``index`` is a NumPy basic index: it selects no cell twice."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        part is None
        or part is Ellipsis
        or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


class Tensor:
    """An n-dimensional array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a ``float64`` NumPy array.
    requires_grad:
        If ``True`` the tensor accumulates gradients in :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        #: ``None`` once :meth:`backward` has run this tensor's node
        self._parents: tuple[Tensor, ...] | None = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (no copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` (summed down to this tensor's shape) to :attr:`grad`.

        A non-leaf tensor adopts its first gradient instead of copying it, and
        holds it only until :meth:`backward` runs its node, which takes it off
        again.  Every backward closure hands on an array it has just computed
        or a view of the gradient it was given, and nothing writes into either
        afterwards (a second gradient is *added* into a new array), so two
        tensors may share one buffer.  An adopted buffer must be C-contiguous,
        as a copy is: it feeds the next backward's GEMMs, and BLAS takes
        another path, and rounds differently, on a strided operand — so a
        strided view is still copied.  A leaf (a parameter) always copies:
        ``clip_grad_norm`` scales ``param.grad`` in place, and a buffer two
        parameters shared (the operands of ``a + b``) would be scaled twice.
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            adopt = self._backward is not None and grad.flags.c_contiguous
            self.grad = grad if adopt else grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode autodiff from this tensor, freeing the graph as it goes.

        ``grad`` defaults to 1.0 and must match this tensor's shape
        otherwise.  After the call every reachable leaf with
        ``requires_grad=True`` (a parameter, or any tensor built with
        ``requires_grad=True``) holds its gradient in ``.grad``.

        The graph runs backward once, as PyTorch's does by default: before a
        node's closure runs, the node gives up the closure, its parents and
        its gradient, so each forward buffer and each intermediate gradient
        is released once the last node that reads it has run, and no
        non-leaf holds a gradient afterwards.  A second backward through a
        freed node — from the same tensor, or from a new one built on it —
        raises ``RuntimeError`` before it touches any gradient.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological order of the reachable graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise RuntimeError(
                    "backward() through a graph that has already run backward: "
                    "its closures and intermediate gradients are freed"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        # popped, not iterated, so a node and its data go once it has run
        while topo:
            node = topo.pop()
            closure = node._backward
            if closure is None:  # a leaf keeps its gradient
                continue
            node_grad = node.grad
            node._backward = node.grad = node._parents = None
            if node_grad is not None:
                closure(node_grad)
            del closure, node_grad

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(grad)

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad)

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __truediv__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data**2))

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data**2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside the range."""
        data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(np.float64)
            mask = mask / mask.sum(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(mask * g)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        """``self.data[index]``; the gradient is scattered back into zeros.

        A basic index (ints, slices, ``None``, ``Ellipsis``) selects no cell
        twice, so ``full[index] += grad`` adds the same ``0.0 + g`` per cell
        as ``np.add.at`` — signed zeros included — without its unbuffered,
        element-by-element scatter.  An array index (integer or boolean)
        keeps ``np.add.at``: an integer one may repeat a cell (an embedding
        lookup of a repeated id), and only ``np.add.at`` sums the repeats.
        """
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if _is_basic_index(index):
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other_t._accumulate(grad * a)
                return
            if a.ndim == 1:
                a_2d = a[None, :]
                grad_2d = np.expand_dims(grad, -2)
                self._accumulate((grad_2d @ np.swapaxes(b, -1, -2)).reshape(a.shape))
                other_t._accumulate(_unbroadcast(np.swapaxes(a_2d, -1, -2) @ grad_2d, b.shape))
                return
            if b.ndim == 1:
                b_2d = b[:, None]
                grad_2d = np.expand_dims(grad, -1)
                self._accumulate(_unbroadcast(grad_2d @ np.swapaxes(b_2d, -1, -2), a.shape))
                other_t._accumulate((np.swapaxes(a, -1, -2) @ grad_2d).reshape(b.shape))
                return
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(_unbroadcast(grad_a, a.shape))
            other_t._accumulate(_unbroadcast(grad_b, b.shape))

        return Tensor._make(data, (self, other_t), backward)

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(
        *shape: int,
        rng: np.random.Generator | None = None,
        scale: float = 1.0,
        requires_grad: bool = False,
    ) -> "Tensor":
        rng = rng if rng is not None else np.random.default_rng()
        return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)


# ---------------------------------------------------------------------- #
# Free functions on tensors
# ---------------------------------------------------------------------- #
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (gradient splits back)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad: np.ndarray) -> None:
        offset = 0
        for tensor, size in zip(tensors, sizes):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(offset, offset + size)
            tensor._accumulate(grad[tuple(index)])
            offset += size

    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts):
            tensor._accumulate(np.squeeze(part, axis=axis))

    return Tensor._make(data, tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``condition ? a : b`` (condition is constant)."""
    a_t = a if isinstance(a, Tensor) else Tensor(a)
    b_t = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    data = np.where(cond, a_t.data, b_t.data)

    def backward(grad: np.ndarray) -> None:
        a_t._accumulate(grad * cond)
        b_t._accumulate(grad * (~cond))

    return Tensor._make(data, (a_t, b_t), backward)
