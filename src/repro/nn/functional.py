"""Stateless neural-network operations on :class:`~repro.nn.tensor.Tensor`.

These functions mirror ``torch.nn.functional``: they build autograd graph
nodes but hold no parameters.  Numerically sensitive operations (softmax,
cross entropy) are implemented with the usual max-subtraction
stabilisation.  With grad off every operation computes the same arrays
and records no graph.

:func:`cross_entropy`, :func:`tied_cross_entropy`, :func:`gelu`,
:func:`softmax`, :func:`layer_norm`, :func:`linear` and :func:`dropout` are
one graph node each.  Each repeats the floating-point operations of the
chain of nodes it replaced, in that chain's order, forward and backward —
the backward hands each input its gradient contributions in the chain's
reverse-topological order — so values, gradients and trained weights equal
the chain's bit for bit, while a step keeps one or two arrays per node
instead of every intermediate.  The chains are kept as the oracle in
``tests/nn/reference_engine.py``.
"""

from __future__ import annotations

import numpy as np

from repro.data.padding import PAD_INDEX
from repro.nn.tensor import Tensor, _unbroadcast

__all__ = [
    "softmax",
    "cross_entropy",
    "tied_cross_entropy",
    "gelu",
    "layer_norm",
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


#: ``sqrt(2 / pi)``, the scale of GELU's tanh argument
_GELU_SCALE = np.sqrt(2.0 / np.pi)


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
    """Gaussian error linear unit (tanh approximation used by BERT), one graph node.

    ``0.5 x (1 + tanh(sqrt(2 / pi) (x + 0.044715 x^3)))`` with the operations
    of the chain of elementwise nodes it replaced, in that chain's order
    (``(x * x) * x`` first); the node keeps only the ``tanh``.  The backward
    forms the chain's five contributions to the input's gradient and adds
    them in the chain's order — into one buffer when the input holds no
    gradient yet, else one at a time onto the one it holds — so values and
    gradients equal the chain's bit for bit.
    """
    data = x.data
    tanh_value = data * data
    tanh_value *= data
    tanh_value *= 0.044715
    tanh_value += data
    tanh_value *= _GELU_SCALE
    np.tanh(tanh_value, out=tanh_value)
    out = tanh_value + 1.0
    out *= data * 0.5

    def backward(grad: np.ndarray) -> None:
        # the chain's nodes in reverse — (x * 0.5) * (tanh + 1), then the
        # tanh's argument c * (x + ((x * x) * x) * 0.044715) — each product
        # formed in place (its two operands commute, so its bits are the chain's)
        outer = tanh_value + 1.0
        outer *= grad
        outer *= 0.5
        inner = data * 0.5
        inner *= grad
        square = tanh_value**2
        np.subtract(1.0, square, out=square)
        inner *= square
        inner *= _GELU_SCALE
        cubic = inner * 0.044715
        np.multiply(data, data, out=square)
        square *= cubic
        cubic *= data
        cubic *= data
        parts = [outer, inner, square, cubic, cubic]
        if x.grad is None:  # the same sums, in place, handed over as one buffer
            for part in parts[1:]:
                outer += part
            parts = [outer]
        for part in parts:
            x._accumulate(part)

    return Tensor._make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``, one graph node.

    ``exp(x - max) / sum(exp(x - max))``; the node keeps the ``exp`` and its
    sums.  Forward and backward repeat the operations of the chain of
    elementwise nodes ``exp = (x - max).exp(); exp / exp.sum()`` in its
    order, so both equal it bit for bit.
    """
    exp = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(exp, out=exp)
    sums = exp.sum(axis=axis, keepdims=True)
    out = exp / sums

    def backward(grad: np.ndarray) -> None:
        # the division's gradient to ``exp``, then the sums' broadcast back onto it
        exp_grad = grad / sums
        exp_grad += np.broadcast_to(_unbroadcast(-grad * exp / (sums**2), sums.shape), exp.shape)
        x._accumulate(exp_grad * exp)

    return Tensor._make(out, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then scale and shift.

    One graph node over ``x``, ``weight`` and ``bias``; it keeps the centred
    input and the per-row ``variance + eps`` and its square root.  Forward
    and backward repeat the operations of the chain of elementwise nodes it
    replaced — ``(variance + eps) ** 0.5`` as a power, the gradient of every
    node in the chain's reverse order — so values and gradients equal it bit
    for bit.  ``x`` gets the centred path's gradient and then the mean's as
    two additions, as the chain added them, since a residual connection may
    already have handed ``x`` a gradient.
    """
    scale = 1.0 / x.shape[-1]
    data = x.data
    centered = data - data.sum(axis=-1, keepdims=True) * scale
    shifted_variance = (centered * centered).sum(axis=-1, keepdims=True) * scale + eps
    std = shifted_variance**0.5
    out = centered / std
    out *= weight.data
    out += bias.data

    def backward(grad: np.ndarray) -> None:
        # the chain's nodes in reverse: the shift, the scale, the division
        # by the root, the variance's chain, then the mean's
        bias._accumulate(grad)
        if weight.requires_grad:
            weight._accumulate(grad * (centered / std))
        if not x.requires_grad:
            return
        normalised_grad = grad * weight.data
        std_grad = _unbroadcast(-normalised_grad * centered / (std**2), std.shape)
        variance_grad = std_grad * 0.5 * shifted_variance**-0.5
        squares_grad = variance_grad * scale * centered
        centered_grad = normalised_grad / std
        centered_grad += squares_grad
        centered_grad += squares_grad
        x._accumulate(centered_grad)
        mean_grad = _unbroadcast(-centered_grad, std.shape) * scale
        x._accumulate(np.broadcast_to(mean_grad, data.shape))

    return Tensor._make(out, (x, weight, bias), backward)


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
    turns that same buffer, in place, into ``(g / row sum) * exp`` and
    subtracts ``g`` at each target, ``g`` being the gradient of the row's
    loss — the node's only array of that size, safe to overwrite because
    :meth:`~repro.nn.tensor.Tensor.backward` runs a node once and then frees
    it.  These are the floating-point operations of
    ``nll_loss(log_softmax(logits))``, in its order, so loss and gradient
    equal that composite's bit for bit — unless an ignored row's logits are
    not finite, or its class 0 holds all of the probability to double
    precision (the composite's ignored loss, ``-(log_prob * 0.0)``, then
    reads NaN or -0.0).

    GRU4Rec and Caser train through this node.  SASRec, BERT4Rec and IRN,
    whose logits are the tied projection onto the item table, train
    through :func:`tied_cross_entropy`, which runs the same two steps
    (:func:`_exp_rows`, :func:`_rows_gradient`) a chunk of batch rows at a
    time without holding the logits.
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

    exp = logits.data.reshape(lead + (num_classes,))[rows]
    sums, kept_losses = _exp_rows(exp, target)
    losses = np.zeros(flat_targets.size)
    losses[kept] = kept_losses
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
        full = np.zeros(lead + (num_classes,))
        # the node runs once, so its buffer becomes the gradient
        full[rows] = _rows_gradient(exp, sums, target, upstream)
        logits._accumulate(full.reshape(logits.shape))

    return Tensor._make(value, (logits,), backward)


def _exp_rows(rows: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn the ``(kept, classes)`` logits ``rows``, in place, into ``exp(row - row max)``.

    Returns the ``(kept, 1)`` row sums and each row's loss at its
    ``target``: the forward operations of ``nll_loss(log_softmax(rows))``,
    in that composite's order.
    """
    rows -= rows.max(axis=1, keepdims=True)
    shifted_target = rows[np.arange(len(rows)), target]
    np.exp(rows, out=rows)
    sums = rows.sum(axis=1, keepdims=True)
    return sums, -(shifted_target - np.log(sums[:, 0]))


def _rows_gradient(exp, sums, target, upstream) -> np.ndarray:
    """Turn ``exp`` of :func:`_exp_rows`, in place, into the rows' logit gradient.

    ``sums`` are the row sums :func:`_exp_rows` returned with it, and
    ``upstream`` is the gradient of each row's loss, or one for every row:
    ``(upstream / sum) * exp``, less ``upstream`` at each target, as the
    composite's backward computes it.
    """
    coefficient = (upstream / sums[:, 0])[:, None]
    exp *= coefficient
    if np.signbit(coefficient).any():
        exp += 0.0  # the composite added these to zeros, so -0.0 reads +0.0
    exp[np.arange(len(exp)), target] -= upstream
    return exp


#: the logits :func:`tied_cross_entropy` projects at once, in bytes: a chunk
#: is as many whole batch rows as fit, and at least one
_TIED_CHUNK_BYTES = 4 << 20


def tied_cross_entropy(hidden: Tensor, table: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross entropy of ``hidden @ table.T`` against ``targets``, one graph node.

    ``hidden`` is ``(batch, length, d)``, ``table`` the ``(vocab, d)`` tied
    output projection and ``targets`` ``(batch, predicted)`` with
    ``predicted <= length``: position ``t < predicted`` of a row predicts
    ``targets[:, t]``, and the positions after it are projected and left
    out, as IRN leaves out its objective column.  Targets equal to
    :data:`~repro.data.padding.PAD_INDEX` add no loss and are left out of
    the mean.  This is the loss the Transformer models train with, and it
    equals the chain ``cross_entropy(hidden.matmul(table.transpose())[:,
    :predicted], targets, ignore_index=PAD_INDEX)`` bit for bit without
    ever holding its ``(batch, length, vocab)`` logits.

    The node works through the batch a chunk of whole rows at a time
    (:data:`_TIED_CHUNK_BYTES` of logits).  The forward projects a chunk,
    copies out its kept rows, frees the projection and runs
    :func:`cross_entropy`'s operations on the rows; it keeps no array of the
    chunk, and writes each row's loss into one flat vector, summed once as
    the chain sums it.  The backward projects each chunk again, repeats the
    forward's operations on its kept rows and turns them into their
    gradient as :func:`cross_entropy` does, and writes them into the
    projection's own buffer, zeroed — the ``(chunk, length, vocab)``
    gradient the chain's matmul received, its left-out positions zero —
    then takes ``grad @ table`` for ``hidden`` and adds each row's
    ``hiddenᵀ @ grad`` into one running ``(d, vocab)`` sum in batch order,
    the order the chain's leading-axis sum added them.
    """
    data, weights = hidden.data, table.data
    batch, length, _ = data.shape
    vocab = weights.shape[0]
    targets = np.asarray(targets, dtype=np.int64)
    predicted = targets.shape[1]
    flat_targets = targets.reshape(-1)
    kept = np.flatnonzero(flat_targets != PAD_INDEX)
    row_of, position_of = np.divmod(kept, predicted)
    target_of = flat_targets[kept]
    step = max(1, _TIED_CHUNK_BYTES // (length * vocab * 8))
    # each chunk's batch rows ``first:end`` and its kept rows ``low:high``
    chunks = [
        (first, min(first + step, batch), *np.searchsorted(row_of, [first, first + step]))
        for first in range(0, batch, step)
    ]

    def kept_logits(first, end, low, high):
        """The chunk's projection and a copy of its kept rows' logits."""
        logits = data[first:end] @ weights.T
        return logits, logits[row_of[low:high] - first, position_of[low:high]]

    losses = np.zeros(flat_targets.size)
    for first, end, low, high in chunks:
        exp = kept_logits(first, end, low, high)[1]  # the projection goes here
        losses[kept[low:high]] = _exp_rows(exp, target_of[low:high])[1]
        del exp
    scale = 1.0 / max(kept.size, 1)
    value = losses.sum() * scale

    def backward(grad: np.ndarray) -> None:
        upstream = grad * scale
        hidden_grad = np.empty(data.shape) if hidden.requires_grad else None
        table_grad = np.zeros(weights.shape[::-1]) if table.requires_grad else None
        for first, end, low, high in chunks:
            block, rows_grad = kept_logits(first, end, low, high)
            target = target_of[low:high]
            sums, _ = _exp_rows(rows_grad, target)
            _rows_gradient(rows_grad, sums, target, upstream)
            block.fill(0.0)  # the projection's buffer becomes the chunk's gradient
            block[row_of[low:high] - first, position_of[low:high]] = rows_grad
            del rows_grad
            if hidden_grad is not None:
                hidden_grad[first:end] = block @ weights
            if table_grad is not None:
                for row, row_grad in zip(data[first:end], block):
                    table_grad += row.T @ row_grad
            del block
        if hidden_grad is not None:
            hidden._accumulate(hidden_grad)
        if table_grad is not None:
            table._accumulate(table_grad.T)

    return Tensor._make(value, (hidden, table), backward)


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
    """Inverted dropout: zero entries with probability ``p`` during training, one graph node.

    The node keeps only the bool keep-mask, one byte an entry; forward and
    backward multiply by ``keep / (1 - p)`` in float64, the mask of the
    ``x * Tensor(mask)`` node it replaced, so both equal it bit for bit.
    """
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng if rng is not None else np.random.default_rng()
    keep = rng.random(x.shape) >= p
    out = keep.astype(np.float64) / (1.0 - p)
    out *= x.data

    def backward(grad: np.ndarray) -> None:
        mask = keep.astype(np.float64) / (1.0 - p)
        mask *= grad
        x._accumulate(mask)

    return Tensor._make(out, (x,), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Look up rows of ``weight`` for integer ``indices`` (gather with grad)."""
    indices = np.asarray(indices, dtype=np.int64)
    return weight[indices]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` matching ``torch.nn.functional.linear``, one graph node.

    The node keeps only its output: the bias is added into the fresh
    product.  The backward repeats the operations of the
    ``x.matmul(weight.transpose()) + bias`` chain it replaced, in that
    chain's order — the bias's gradient summed over the leading axes, then
    ``grad @ weight`` for ``x``, then the batched ``xᵀ @ grad`` summed over
    the leading axes and transposed for the weight — so values and
    gradients equal it bit for bit.
    """
    out = x.data @ weight.data.T
    if bias is not None:
        out += bias.data

    def backward(grad: np.ndarray) -> None:
        if bias is not None:
            bias._accumulate(grad)
        inputs = x.data
        if inputs.ndim == 1:  # the matmul's vector case: a one-row matrix
            inputs, grad = inputs[None, :], grad[None, :]
        if x.requires_grad:
            x._accumulate((grad @ weight.data).reshape(x.shape))
        if weight.requires_grad:
            products = np.swapaxes(inputs, -1, -2) @ grad
            weight._accumulate(_unbroadcast(products, weight.shape[::-1]).T)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)
