"""Embedding ANN candidate generation: cosine shortlist with a coarse index.

The generator embeds every item with one of the :mod:`repro.embeddings`
models (PPMI+SVD by default — deterministic and, with the sparse solver,
fit-able at ``V = 10**6``; item2vec is available where its training cost is
acceptable), L2-normalises the vectors, and shortlists by cosine
similarity to a query vector built from the recent history and the
objective.

Small vocabularies use exact brute force over all item vectors.  Past
``coarse_threshold`` items an IVF-style coarse index takes over: a seeded
lightweight k-means (Lloyd iterations over chunked assignments) partitions
items into ``~sqrt(V)`` clusters, a query probes the ``nprobe`` nearest
centroids, and the shortlist is the exact cosine top-k *within the probed
members* — the classic two-level trade: recall is controlled by
``nprobe``, and :mod:`repro.retrieval.metrics` measures the resulting
overlap@k/regret rather than hiding it.

All selection uses :func:`repro.shard.topk.stable_topk`'s (value desc,
index asc) order, so candidate sets are deterministic for a fixed fit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.embeddings.cooccurrence import CooccurrenceEmbedding
from repro.embeddings.item2vec import Item2Vec
from repro.retrieval.base import CandidateGenerator, retrieval_registry
from repro.shard.topk import stable_topk
from repro.utils.exceptions import ConfigurationError

__all__ = ["EmbeddingANNGenerator"]

_ASSIGN_CHUNK_ROWS = 1 << 14


def _normalize_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = np.where(norms > 0, vectors / norms, 0.0)
    return np.ascontiguousarray(unit, dtype=np.float64)


def _kmeans(
    vectors: np.ndarray, num_clusters: int, iterations: int, seed: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Seeded Lloyd k-means; returns (centroids, assignment)."""
    count = vectors.shape[0]
    rng = np.random.default_rng(seed)
    centroids = vectors[rng.choice(count, size=num_clusters, replace=False)].copy()
    assignment = np.zeros(count, dtype=np.int64)
    for _ in range(max(1, iterations)):
        for start in range(0, count, _ASSIGN_CHUNK_ROWS):
            chunk = vectors[start : start + _ASSIGN_CHUNK_ROWS]
            # Unit-norm rows: nearest-euclidean == highest dot product.
            assignment[start : start + chunk.shape[0]] = np.argmax(
                chunk @ centroids.T, axis=1
            )
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignment, vectors)
        counts = np.bincount(assignment, minlength=num_clusters).astype(np.float64)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        centroids = _normalize_rows(centroids)
    return centroids, assignment


@retrieval_registry.register("ann")
class EmbeddingANNGenerator(CandidateGenerator):
    """Cosine shortlist over item-embedding vectors (IVF above a threshold)."""

    name = "ann"

    def __init__(
        self,
        num_candidates: int = 256,
        embedding: str = "cooccurrence",
        embedding_dim: int = 32,
        window: int = 3,
        nprobe: int = 8,
        coarse_threshold: int = 2048,
        num_clusters: "int | None" = None,
        kmeans_iterations: int = 4,
        history_window: int = 8,
        seed: int = 0,
        embedding_model=None,
    ) -> None:
        super().__init__(num_candidates=num_candidates)
        if embedding not in ("cooccurrence", "item2vec"):
            raise ConfigurationError(
                f"unknown embedding '{embedding}'; expected cooccurrence or item2vec"
            )
        if nprobe < 1 or history_window < 1:
            raise ConfigurationError("nprobe and history_window must be >= 1")
        self.embedding = embedding
        self.embedding_dim = embedding_dim
        self.window = window
        self.nprobe = nprobe
        self.coarse_threshold = coarse_threshold
        self.num_clusters = num_clusters
        self.kmeans_iterations = kmeans_iterations
        self.history_window = history_window
        self.seed = seed
        self._embedding_model = embedding_model
        self._vectors: "np.ndarray | None" = None
        self._centroids: "np.ndarray | None" = None
        self._cluster_members: "np.ndarray | None" = None
        self._cluster_indptr: "np.ndarray | None" = None

    def _config_extras(self) -> tuple:
        return (
            self.embedding,
            self.embedding_dim,
            self.window,
            self.nprobe,
            self.coarse_threshold,
            self.num_clusters,
            self.kmeans_iterations,
            self.history_window,
            self.seed,
        )

    # -- fitting -----------------------------------------------------------

    def _build_embedding(self):
        if self._embedding_model is not None:
            return self._embedding_model
        if self.embedding == "item2vec":
            return Item2Vec(embedding_dim=self.embedding_dim, window=self.window)
        return CooccurrenceEmbedding(
            embedding_dim=self.embedding_dim,
            window=self.window,
            solver="auto",
            seed=self.seed,
        )

    def _fit(self, corpus, vocab_size: int) -> None:
        model = self._build_embedding()
        try:
            vectors = model.vectors
        except Exception:
            vectors = model.fit(corpus).vectors
        if vectors.shape[0] != vocab_size:
            raise ConfigurationError(
                f"embedding rows ({vectors.shape[0]}) != vocab size ({vocab_size})"
            )
        self._vectors = _normalize_rows(np.asarray(vectors, dtype=np.float64))
        self._centroids = None
        self._cluster_members = None
        self._cluster_indptr = None
        num_items = vocab_size - 1
        if num_items > self.coarse_threshold:
            clusters = self.num_clusters or max(1, int(np.sqrt(num_items)))
            clusters = min(clusters, num_items)
            centroids, assignment = _kmeans(
                self._vectors[1:], clusters, self.kmeans_iterations, self.seed
            )
            order = np.argsort(assignment, kind="stable")
            self._centroids = centroids
            self._cluster_members = order.astype(np.int64) + 1  # back to item indices
            counts = np.bincount(assignment, minlength=clusters)
            indptr = np.zeros(clusters + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._cluster_indptr = indptr

    # -- querying ----------------------------------------------------------

    def _query_vector(
        self, history: Sequence[int], objective: int
    ) -> "np.ndarray | None":
        assert self._vectors is not None
        vocab = self._vectors.shape[0]
        recent = [int(item) for item in history[-self.history_window :]]
        anchors = [item for item in recent if 1 <= item < vocab]
        anchors.append(objective)
        query = self._vectors[anchors].mean(axis=0)
        norm = np.linalg.norm(query)
        if norm == 0:
            return None
        return query / norm

    def _probe_members(self, query: np.ndarray) -> np.ndarray:
        assert (
            self._centroids is not None
            and self._cluster_members is not None
            and self._cluster_indptr is not None
        )
        similarities = (self._centroids @ query)[None, :]
        nprobe = min(self.nprobe, self._centroids.shape[0])
        probe_order, _ = stable_topk(similarities, self._centroids.shape[0])
        member_chunks: "list[np.ndarray]" = []
        gathered = 0
        for rank, cluster in enumerate(probe_order[0]):
            if rank >= nprobe and gathered >= self.num_candidates:
                break
            lo, hi = self._cluster_indptr[cluster], self._cluster_indptr[cluster + 1]
            members = self._cluster_members[lo:hi]
            if members.size:
                member_chunks.append(members)
                gathered += members.size
        if not member_chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(member_chunks)

    def _candidates(self, history, objective, user_index):
        assert self._vectors is not None
        query = self._query_vector(history, objective)
        if query is None:
            return None  # nothing to anchor on: full-vocabulary fallback
        if self._centroids is None:
            members = np.arange(1, self._vectors.shape[0], dtype=np.int64)
        else:
            members = self._probe_members(query)
            if members.size == 0:
                return None
        similarities = (self._vectors[members] @ query)[None, :]
        k = min(self.num_candidates, members.size)
        top, _ = stable_topk(similarities, k)
        return members[top[0]]
