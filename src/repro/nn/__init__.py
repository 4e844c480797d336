"""A small reverse-mode autodiff and neural-network library on NumPy.

This subpackage is the substrate that replaces PyTorch in this reproduction.
It provides:

* :class:`~repro.nn.tensor.Tensor` — an n-dimensional array with reverse-mode
  automatic differentiation and broadcasting-aware gradients.
* :mod:`~repro.nn.functional` — stateless operations (softmax, layer norm,
  cross entropy, dropout, GELU, ...).
* :mod:`~repro.nn.layers` — stateful modules (``Linear``, ``Embedding``,
  ``LayerNorm``, ``Dropout``, containers).
* :mod:`~repro.nn.attention` / :mod:`~repro.nn.transformer` — multi-head
  attention with additive masks and Transformer blocks (the basis of SASRec,
  BERT4Rec and IRN).
* :mod:`~repro.nn.inference` — a fitted IRN compiled into a flat no-grad
  program over raw ndarrays (what IRN infers through; the modules above stay
  its training path and oracle).
* :mod:`~repro.nn.rnn` — a GRU implementation (the basis of GRU4Rec).
* :mod:`~repro.nn.conv` — convolution helpers (the basis of Caser).
* :mod:`~repro.nn.optim` — SGD / Adam optimizers and LR schedulers.
* :mod:`~repro.nn.serialization` — ``state_dict`` save / load on ``.npz``.
"""

from repro.nn import functional
from repro.nn.attention import MultiHeadAttention
from repro.nn.conv import Conv2d
from repro.nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Sequential,
)
from repro.nn.optim import SGD, Adam, ReduceLROnPlateau, StepLR
from repro.nn.rnn import GRU, GRUCell
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import (
    PositionwiseFeedForward,
    TransformerEncoder,
    TransformerEncoderLayer,
)

__all__ = [
    "Adam",
    "Conv2d",
    "Dropout",
    "Embedding",
    "GRU",
    "GRUCell",
    "LayerNorm",
    "Linear",
    "Module",
    "ModuleList",
    "MultiHeadAttention",
    "Parameter",
    "PositionwiseFeedForward",
    "ReduceLROnPlateau",
    "SGD",
    "Sequential",
    "StepLR",
    "Tensor",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "functional",
    "load_state_dict",
    "no_grad",
    "save_state_dict",
]
