"""The gradient bookkeeping, loss and composites the tensor engine trained with before.

This is ``Tensor._accumulate`` and ``Tensor.__getitem__`` of
``repro.nn.tensor`` as they were before the engine stopped copying first
gradients and scattering basic-index gradients with ``np.add.at``;
``log_softmax``, ``nll_loss`` and the composite ``cross_entropy`` of
``repro.nn.functional`` as they were before cross entropy became one graph
node; the chain of the tied projection and that loss,
``tied_cross_entropy``, as the Transformer models trained through it before
it became one node; and ``gelu``, ``softmax``, the layer norm of ``LayerNorm.forward``,
``linear`` and ``dropout`` as they were before each became one graph node —
chains of nodes, unchanged (``linear`` with the no-grad branch it had).
:func:`use_reference_engine` swaps them in for the engine's own, so
everything else a fit runs (attention's matmuls, Adam, clipping) is the
engine's and any difference in the trained weights is the bookkeeping's,
the loss's or a composite's.

The engine frees each non-leaf's gradient as its node runs backward, so the
parity tests read the gradient an op hands its input through a
:class:`GradientProbe` node put between the two.
"""

from __future__ import annotations

import numpy as np

from repro.data.padding import PAD_INDEX
from repro.nn import functional
from repro.nn.tensor import Tensor, _unbroadcast, is_grad_enabled


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


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def nll_loss(
    log_probs: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``.

    ``log_probs`` has shape ``(..., num_classes)`` and ``targets`` the
    corresponding leading shape.  Positions equal to ``ignore_index``
    contribute zero loss and are excluded from the mean.
    """
    targets = np.asarray(targets, dtype=np.int64)
    num_classes = log_probs.shape[-1]
    flat_logp = log_probs.reshape(-1, num_classes)
    flat_targets = targets.reshape(-1)

    if ignore_index is not None:
        valid = flat_targets != ignore_index
    else:
        valid = np.ones_like(flat_targets, dtype=bool)
    # Replace ignored targets with 0 so the gather is well defined; their
    # contribution is multiplied by zero below.
    safe_targets = np.where(valid, flat_targets, 0)

    rows = np.arange(flat_targets.shape[0])
    picked = flat_logp[rows, safe_targets]
    weights = Tensor(valid.astype(np.float64))
    losses = -(picked * weights)

    if reduction == "none":
        return losses
    if reduction == "sum":
        return losses.sum()
    if reduction == "mean":
        count = max(int(valid.sum()), 1)
        return losses.sum() * (1.0 / count)
    raise ValueError(f"unknown reduction '{reduction}'")


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Softmax cross entropy between ``logits`` and integer ``targets``."""
    return nll_loss(
        log_softmax(logits, axis=-1),
        targets,
        ignore_index=ignore_index,
        reduction=reduction,
    )


def tied_cross_entropy(hidden: Tensor, table: Tensor, targets: np.ndarray) -> Tensor:
    """The tied projection, the predicting positions, then the loss, as the models trained."""
    logits = hidden.matmul(table.transpose())
    predicted = np.asarray(targets).shape[1]
    if predicted < logits.shape[1]:  # IRN's objective column predicts nothing
        logits = logits[:, :predicted, :]
    return cross_entropy(logits, targets, ignore_index=PAD_INDEX)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation used by BERT)."""
    inner = Tensor(np.sqrt(2.0 / np.pi)) * (x + x * x * x * 0.044715)
    return x * 0.5 * (inner.tanh() + 1.0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """``LayerNorm.forward`` as it was: layer normalisation over the last dimension."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normalised = centered / ((variance + eps) ** 0.5)
    return normalised * weight + bias


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` matching ``torch.nn.functional.linear``."""
    if not is_grad_enabled():
        out = np.matmul(x.data, weight.data.T)
        if bias is not None:
            out += bias.data
        return Tensor(out)
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Inverted dropout: zero entries with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)


class GradientProbe:
    """An identity node that records the gradient its node receives, then hands it on.

    ``probe(x)`` is ``x`` — the same array — as a new non-leaf node; its
    backward keeps the gradient it is given in :attr:`grad`, the array the
    engine handed over (nothing writes into a gradient once it is handed
    on), and passes it to ``x``.  A non-leaf adopts or copies a first
    gradient by the same rule as any other, so :attr:`grad` is the gradient
    ``x`` itself would have held.  It stays ``None`` if the node never ran.
    """

    def __init__(self) -> None:
        self.grad: np.ndarray | None = None

    def __call__(self, x: Tensor) -> Tensor:
        def backward(grad: np.ndarray) -> None:
            assert self.grad is None, "a probe records one backward"
            self.grad = grad
            x._accumulate(grad)

        return Tensor._make(x.data, (x,), backward)


def use_reference_engine(monkeypatch) -> None:
    """Train through the reference bookkeeping, loss and composites for the rest of the test."""
    monkeypatch.setattr(Tensor, "_accumulate", _accumulate)
    monkeypatch.setattr(Tensor, "__getitem__", __getitem__)
    monkeypatch.setattr(functional, "cross_entropy", cross_entropy)
    monkeypatch.setattr(functional, "tied_cross_entropy", tied_cross_entropy)
    monkeypatch.setattr(functional, "gelu", gelu)
    monkeypatch.setattr(functional, "softmax", softmax)
    monkeypatch.setattr(functional, "layer_norm", layer_norm)
    monkeypatch.setattr(functional, "linear", linear)
    monkeypatch.setattr(functional, "dropout", dropout)
