"""Stateless neural-network operations on :class:`~repro.nn.tensor.Tensor`.

These functions mirror ``torch.nn.functional``: they build autograd graph
nodes but hold no parameters.  Numerically sensitive operations (softmax,
log-softmax, cross entropy) are implemented with the usual max-subtraction
stabilisation.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, is_grad_enabled
from repro.utils.exceptions import ConfigurationError

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
    "fused_attention",
    "softmax_",
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
    if not is_grad_enabled():
        # Fused inference path: the same ufuncs in the same order as the
        # graph path below (products commuted, which is bitwise-exact), but
        # in place on one scratch buffer instead of eight graph temporaries.
        data = x.data
        inner = data * data
        inner *= data
        inner *= 0.044715
        inner += data
        inner *= np.sqrt(2.0 / np.pi)
        np.tanh(inner, out=inner)
        inner += 1.0
        inner *= data * 0.5
        return Tensor(inner)
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
        # Fused inference path: the identical GEMM + broadcast add, without
        # the transpose/matmul/add graph wrappers (bitwise-equal output).
        out = np.matmul(x.data, weight.data.T)
        if bias is not None:
            out += bias.data
        return Tensor(out)
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


# ---------------------------------------------------------------------- #
# Fused inference kernels (raw ndarrays, no autograd graph)
# ---------------------------------------------------------------------- #


def softmax_(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, **in place**.

    The max-subtraction, exponentiation and normalisation all reuse
    ``scores``'s buffer; only the per-row max/sum reductions allocate.
    Returns ``scores`` for chaining.
    """
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def fused_attention(
    query: np.ndarray,
    key: np.ndarray,
    value: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention fused into one pass over raw ndarrays.

    Computes ``softmax(QK^T / sqrt(d_k) + mask) V`` exactly like the
    graph-building implementation in :mod:`repro.nn.attention`, but with
    score + scale + mask + softmax all applied **in place** on a single
    preallocated score buffer (one allocation where the graph path
    materialises an intermediate per op, plus the graph nodes themselves).
    Inference only — the result carries no autograd graph, so the call
    raises unless grad is disabled; the graph path remains the training
    implementation and the parity oracle (equal to ~1e-12, same BLAS
    contractions in the same order).

    Returns ``(context, weights)`` as raw float64 ndarrays.
    """
    if is_grad_enabled():
        raise ConfigurationError(
            "fused_attention builds no autograd graph; wrap the call in no_grad() "
            "(the Tensor implementation in repro.nn.attention is the training path)"
        )
    query = np.asarray(query, dtype=np.float64)
    key = np.asarray(key, dtype=np.float64)
    value = np.asarray(value, dtype=np.float64)
    d_k = query.shape[-1]
    batch_shape = np.broadcast_shapes(query.shape[:-2], key.shape[:-2])
    scores = np.empty(batch_shape + (query.shape[-2], key.shape[-2]), dtype=np.float64)
    np.matmul(query, key.swapaxes(-1, -2), out=scores)
    scores *= 1.0 / np.sqrt(d_k)
    if mask is not None:
        scores += np.asarray(mask)
    softmax_(scores)
    context = np.matmul(scores, value)
    return context, scores
