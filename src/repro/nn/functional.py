"""Stateless neural-network operations on :class:`~repro.nn.tensor.Tensor`.

These functions mirror ``torch.nn.functional``: they build autograd graph
nodes but hold no parameters.  Numerically sensitive operations (softmax,
log-softmax, cross entropy) are implemented with the usual max-subtraction
stabilisation.  With grad off every operation computes the same arrays
and records no graph; :func:`linear` alone also skips its graph wrappers.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, is_grad_enabled

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
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


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a one-hot ``float64`` matrix for integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


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
