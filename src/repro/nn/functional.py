"""Stateless neural-network operations on :class:`~repro.nn.tensor.Tensor`.

These functions mirror ``torch.nn.functional``: they build autograd graph
nodes but hold no parameters.  Numerically sensitive operations (softmax,
cross entropy) are implemented with the usual max-subtraction
stabilisation.  With grad off every operation computes the same arrays
and records no graph; :func:`linear` alone also skips its graph wrappers.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, is_grad_enabled

__all__ = [
    "softmax",
    "cross_entropy",
    "gelu",
    "relu",
    "sigmoid",
    "tanh",
    "dropout",
    "embedding",
    "linear",
    "binary_cross_entropy_with_logits",
    "mean_squared_error",
    "one_hot",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation used by BERT)."""
    inner = Tensor(np.sqrt(2.0 / np.pi)) * (x + x * x * x * 0.044715)
    return x * 0.5 * (inner.tanh() + 1.0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a one-hot ``float64`` matrix for integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: int | None = None,
    reduction: str = "mean",
) -> Tensor:
    """Softmax cross entropy between ``logits`` and integer ``targets``, one graph node.

    ``logits`` has shape ``(..., num_classes)`` and ``targets`` one entry per
    leading position.  Positions whose target equals ``ignore_index`` add
    zero loss and are left out of the mean; ``reduction="none"`` returns the
    flat per-position losses, ``+0.0`` at the ignored ones.

    The forward copies only the kept rows into one ``(kept, num_classes)``
    buffer and turns it, in place, into ``exp(row - row max)``; the backward
    writes ``(g / row sum) * exp`` for those rows and subtracts ``g`` at each
    target, ``g`` being the gradient of the row's loss.  These are the
    floating-point operations of ``nll_loss(log_softmax(logits))``, in its
    order, so loss and gradient equal that composite's bit for bit — unless an
    ignored row's logits are not finite, or its class 0 holds all of the
    probability to double precision (the composite's ignored loss,
    ``-(log_prob * 0.0)``, then reads NaN or -0.0).
    """
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"unknown reduction '{reduction}'")
    num_classes = logits.shape[-1]
    lead = logits.shape[:-1] or (1,)
    flat_targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if ignore_index is None:
        kept = np.arange(flat_targets.size)
    else:
        kept = np.flatnonzero(flat_targets != ignore_index)
    rows = np.unravel_index(kept, lead)
    target = flat_targets[kept]
    at_target = (np.arange(kept.size), target)

    exp = logits.data.reshape(lead + (num_classes,))[rows]
    exp -= exp.max(axis=1, keepdims=True)
    shifted_target = exp[at_target]
    np.exp(exp, out=exp)
    sums = exp.sum(axis=1, keepdims=True)
    losses = np.zeros(flat_targets.size)
    losses[kept] = -(shifted_target - np.log(sums[:, 0]))
    scale = 1.0 / max(kept.size, 1)
    if reduction == "none":
        value = losses
    elif reduction == "sum":
        value = losses.sum()
    else:
        value = losses.sum() * scale

    def backward(grad: np.ndarray) -> None:
        if reduction == "none":
            upstream = grad.reshape(-1)[kept]
        else:
            upstream = np.broadcast_to(grad * scale if reduction == "mean" else grad, kept.shape)
        coefficient = (upstream / sums[:, 0])[:, None]
        rows_grad = exp * coefficient
        if np.signbit(coefficient).any():
            rows_grad += 0.0  # the composite added these to zeros, so -0.0 reads +0.0
        rows_grad[at_target] -= upstream
        full = np.zeros(lead + (num_classes,))
        full[rows] = rows_grad
        logits._accumulate(full.reshape(logits.shape))

    return Tensor._make(value, (logits,), backward)


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, reduction: str = "mean"
) -> Tensor:
    """Stable binary cross entropy on raw logits.

    Uses ``max(x, 0) - x * y + log(1 + exp(-|x|))``.
    """
    targets_t = Tensor(np.asarray(targets, dtype=np.float64))
    positive = logits.relu()
    abs_logits = logits.relu() + (-logits).relu()
    loss = positive - logits * targets_t + ((-abs_logits).exp() + 1.0).log()
    if reduction == "none":
        return loss
    if reduction == "sum":
        return loss.sum()
    if reduction == "mean":
        return loss.mean()
    raise ValueError(f"unknown reduction '{reduction}'")


def mean_squared_error(prediction: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Elementwise squared error between a tensor and a constant target."""
    diff = prediction - Tensor(np.asarray(target, dtype=np.float64))
    loss = diff * diff
    if reduction == "none":
        return loss
    if reduction == "sum":
        return loss.sum()
    if reduction == "mean":
        return loss.mean()
    raise ValueError(f"unknown reduction '{reduction}'")


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


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` for integer ``indices`` (gather with grad)."""
    indices = np.asarray(indices, dtype=np.int64)
    return weight[indices]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` matching ``torch.nn.functional.linear``."""
    if not is_grad_enabled():
        # Kept for GRU4Rec, the IRS evaluator: its score_next is ~2x slower without it.
        out = np.matmul(x.data, weight.data.T)
        if bias is not None:
            out += bias.data
        return Tensor(out)
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out
