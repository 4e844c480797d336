"""The gradient bookkeeping the tensor engine trained with before it adopted gradients.

This is ``Tensor._accumulate`` and ``Tensor.__getitem__`` of
``repro.nn.tensor`` as they were before the engine stopped copying first
gradients and scattering basic-index gradients with ``np.add.at`` —
unchanged.  :func:`use_reference_engine` swaps them in for the engine's
own, so everything else a fit runs (layers, losses, Adam, clipping) is the
engine's and any difference in the trained weights is the bookkeeping's.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast


def _accumulate(self, grad: np.ndarray) -> None:
    if not self.requires_grad:
        return
    grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
    if self.grad is None:
        self.grad = grad.copy()
    else:
        self.grad = self.grad + grad


def __getitem__(self, index) -> "Tensor":
    data = self.data[index]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(self.data)
        np.add.at(full, index, grad)
        self._accumulate(full)

    return Tensor._make(data, (self,), backward)


def use_reference_engine(monkeypatch) -> None:
    """Train through the reference bookkeeping for the rest of the test."""
    monkeypatch.setattr(Tensor, "_accumulate", _accumulate)
    monkeypatch.setattr(Tensor, "__getitem__", __getitem__)
