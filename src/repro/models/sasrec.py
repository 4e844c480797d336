"""SASRec: self-attentive sequential recommendation (Kang & McAuley, 2018).

Architecture: item embedding + learned positional embedding -> Transformer
encoder with a causal mask -> tied-weight softmax over items.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.batching import SequenceBatch
from repro.data.interactions import SequenceCorpus
from repro.models._sequence_utils import clip_history, shifted_inputs_and_targets
from repro.models.base import NeuralSequentialRecommender, model_registry
from repro.nn import functional as F
from repro.nn.layers import Dropout, Embedding, Module
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import TransformerEncoder, causal_mask
from repro.utils.rng import spawn_rng

__all__ = ["SASRec"]


class _SASRecModule(Module):
    """Transformer encoder with causal masking and tied output embeddings."""

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
        self.item_embedding = Embedding(vocab_size, embedding_dim, padding_idx=0, rng=rngs[0])
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
        return self.encoder(x, mask=causal_mask(length, copy=False))

    def forward(self, items: np.ndarray) -> Tensor:
        hidden = self.hidden_states(items)
        return hidden.matmul(self.item_embedding.weight.transpose())


@model_registry.register("sasrec")
class SASRec(NeuralSequentialRecommender):
    """Self-attention based next-item recommender."""

    name = "SASRec"

    def __init__(
        self,
        embedding_dim: int = 32,
        num_heads: int = 2,
        num_layers: int = 2,
        dropout: float = 0.1,
        epochs: int = 8,
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

    def _build(self, corpus: SequenceCorpus, rng: np.random.Generator) -> Module:
        return _SASRecModule(
            vocab_size=corpus.vocab.size,
            max_length=self.max_sequence_length + 1,
            embedding_dim=self.embedding_dim,
            num_heads=self.num_heads,
            num_layers=self.num_layers,
            dropout=self.dropout,
            rng=rng,
        )

    def _loss(self, batch: SequenceBatch, rng: np.random.Generator) -> Tensor:
        inputs, targets = shifted_inputs_and_targets(batch.items)
        hidden = self.module.hidden_states(inputs)
        table = self.module.item_embedding.weight
        return F.tied_cross_entropy(hidden, table, targets)

    def score_next(self, history: Sequence[int], user_index: int | None = None) -> np.ndarray:
        self._require_fitted()
        assert self.module is not None
        history = clip_history(history, self.max_sequence_length)
        if not history:
            history = [0]
        items = np.asarray([history], dtype=np.int64)
        with no_grad():
            logits = self.module(items)
        scores = logits.data[0, -1].copy()
        scores[0] = -np.inf
        return scores
