"""BERT4Rec: bidirectional self-attention with masked-item training (Sun et al., 2019).

A special ``[MASK]`` token (index ``vocab_size``) replaces randomly chosen
positions during training; the model reconstructs them from bidirectional
context.  At inference the mask token is appended after the history and the
model's distribution at that position scores the next item.  BERT4Rec is the
strongest evaluator candidate in Table II of the paper and is therefore the
default IRS evaluator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.batching import SequenceBatch
from repro.data.interactions import SequenceCorpus
from repro.data.padding import PAD_INDEX
from repro.models._sequence_utils import clip_history
from repro.models.base import NeuralSequentialRecommender, model_registry
from repro.nn import functional as F
from repro.nn.attention import NEG_INF
from repro.nn.layers import Dropout, Embedding, Module
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import TransformerEncoder
from repro.utils.rng import spawn_rng

__all__ = ["Bert4Rec"]


class _Bert4RecModule(Module):
    """Bidirectional Transformer over item sequences with a [MASK] token."""

    def __init__(
        self,
        vocab_size: int,
        max_length: int,
        embedding_dim: int,
        num_heads: int,
        num_layers: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        rngs = spawn_rng(rng, 4)
        self.vocab_size = vocab_size
        self.mask_token = vocab_size  # one extra row in the embedding table
        self.item_embedding = Embedding(vocab_size + 1, embedding_dim, padding_idx=0, rng=rngs[0])
        self.position_embedding = Embedding(max_length, embedding_dim, rng=rngs[1])
        self.encoder = TransformerEncoder(
            num_layers, embedding_dim, num_heads, dropout=dropout, rng=rngs[2]
        )
        self.dropout = Dropout(dropout, rng=rngs[3])
        self.max_length = max_length

    def hidden_states(self, items: np.ndarray) -> Tensor:
        batch, length = items.shape
        positions = np.tile(np.arange(length) % self.max_length, (batch, 1))
        x = self.item_embedding(items) + self.position_embedding(positions)
        x = self.dropout(x)
        # Padding positions must not be attended to by real positions.
        padding = items == PAD_INDEX
        mask = np.where(padding[:, None, None, :], NEG_INF, 0.0)
        return self.encoder(x, mask=mask)

    def output_table(self) -> Tensor:
        """The tied output projection, restricted to real items (no [MASK] row)."""
        return self.item_embedding.weight[np.arange(self.vocab_size)]

    def forward(self, items: np.ndarray) -> Tensor:
        return self.hidden_states(items).matmul(self.output_table().transpose())


@model_registry.register("bert4rec")
class Bert4Rec(NeuralSequentialRecommender):
    """Bidirectional Transformer recommender trained with the cloze objective."""

    name = "Bert4Rec"

    def __init__(
        self,
        embedding_dim: int = 32,
        num_heads: int = 2,
        num_layers: int = 2,
        dropout: float = 0.1,
        mask_probability: float = 0.25,
        epochs: int = 10,
        batch_size: int = 64,
        learning_rate: float = 2e-3,
        max_sequence_length: int = 40,
        seed: int = 0,
    ) -> None:
        super().__init__(
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            max_sequence_length=max_sequence_length,
            seed=seed,
        )
        self.embedding_dim = embedding_dim
        self.num_heads = num_heads
        self.num_layers = num_layers
        self.dropout = dropout
        self.mask_probability = mask_probability

    def _build(self, corpus: SequenceCorpus, rng: np.random.Generator) -> Module:
        return _Bert4RecModule(
            vocab_size=corpus.vocab.size,
            max_length=self.max_sequence_length + 1,
            embedding_dim=self.embedding_dim,
            num_heads=self.num_heads,
            num_layers=self.num_layers,
            dropout=self.dropout,
            rng=rng,
        )

    def _loss(self, batch: SequenceBatch, rng: np.random.Generator) -> Tensor:
        items = batch.items.copy()
        real = items != PAD_INDEX
        # Cloze masking: always mask the final real position (matches how the
        # model is queried at inference) plus random interior positions.
        masked = (rng.random(items.shape) < self.mask_probability) & real
        last_positions = items.shape[1] - 1 - np.argmax(real[:, ::-1], axis=1)
        has_real = real.any(axis=1)
        masked[np.arange(items.shape[0])[has_real], last_positions[has_real]] = True

        targets = np.where(masked, batch.items, PAD_INDEX)
        corrupted = items.copy()
        corrupted[masked] = self.module.mask_token
        hidden = self.module.hidden_states(corrupted)
        table = self.module.output_table()
        return F.tied_cross_entropy(hidden, table, targets)

    def score_next(self, history: Sequence[int], user_index: int | None = None) -> np.ndarray:
        self._require_fitted()
        assert self.module is not None
        history = clip_history(history, self.max_sequence_length - 1)
        sequence = list(history) + [self.module.mask_token]
        items = np.asarray([sequence], dtype=np.int64)
        with no_grad():
            logits = self.module(items)
        scores = logits.data[0, -1].copy()
        scores[PAD_INDEX] = -np.inf
        return scores
