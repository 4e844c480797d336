"""Sparse co-occurrence neighbour-expansion candidate generation.

Fitting aggregates within-window co-occurrence counts into a scipy-free
CSR structure (shared counting front-end with
:mod:`repro.embeddings.cooccurrence` — no dense ``(V, V)`` is ever built)
and keeps, for every item, its ``neighbors_per_item`` strongest neighbours
in (count desc, index asc) order.

A query seeds a frontier with the recent history and the objective, then
expands it hop by hop through the stored neighbour lists, scoring each
touched item by its summed co-occurrence weight with the frontier.  The
final candidate set is the stable top ``num_candidates`` by (weight desc,
index asc) — deterministic for a fixed fit.  Contexts whose seeds have no
recorded neighbours return ``None`` (full-vocabulary fallback) rather than
an arbitrary shortlist.

A batch of contexts expands at once: every context's frontier is keyed
``context * V + item``, and each context's sums are added in the order it
would add them alone, so a batch returns what looping single contexts
returns.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.embeddings.cooccurrence import _accumulate_pair_codes
from repro.retrieval.base import CandidateGenerator, retrieval_registry
from repro.utils.exceptions import ConfigurationError

__all__ = ["CooccurrenceNeighborGenerator"]


@retrieval_registry.register("cooccurrence")
class CooccurrenceNeighborGenerator(CandidateGenerator):
    """Top co-occurrence neighbours of the recent history and objective."""

    name = "cooccurrence"

    def __init__(
        self,
        num_candidates: int = 256,
        window: int = 3,
        neighbors_per_item: int = 32,
        expansion_hops: int = 2,
        history_window: int = 8,
    ) -> None:
        super().__init__(num_candidates=num_candidates)
        if window < 1 or neighbors_per_item < 1:
            raise ConfigurationError("window and neighbors_per_item must be >= 1")
        if expansion_hops < 1 or history_window < 1:
            raise ConfigurationError("expansion_hops and history_window must be >= 1")
        self.window = window
        self.neighbors_per_item = neighbors_per_item
        self.expansion_hops = expansion_hops
        self.history_window = history_window
        self._neighbors: "np.ndarray | None" = None  # (V, m) item indices, 0-padded
        self._weights: "np.ndarray | None" = None  # (V, m) co-occurrence counts

    def _config_extras(self) -> tuple:
        return (
            self.window,
            self.neighbors_per_item,
            self.expansion_hops,
            self.history_window,
        )

    def _fit(self, corpus, vocab_size: int) -> None:
        codes, counts = _accumulate_pair_codes(corpus, self.window, vocab_size)
        if codes.size == 0:
            raise ConfigurationError("corpus has no co-occurrences")
        rows = codes // vocab_size
        cols = codes % vocab_size
        m = self.neighbors_per_item
        # Keep each row's strongest m neighbours: sort all nonzeros by
        # (row asc, count desc, col asc) and take the first m per row.
        order = np.lexsort((cols, -counts, rows))
        sorted_rows = rows[order]
        sorted_cols = cols[order]
        sorted_counts = counts[order]
        row_start_count = np.bincount(sorted_rows, minlength=vocab_size)
        row_starts = np.zeros(vocab_size, dtype=np.int64)
        np.cumsum(row_start_count[:-1], out=row_starts[1:])
        within = np.arange(sorted_rows.size, dtype=np.int64) - row_starts[sorted_rows]
        keep = within < m
        neighbors = np.zeros((vocab_size, m), dtype=np.int64)
        weights = np.zeros((vocab_size, m), dtype=np.float64)
        neighbors[sorted_rows[keep], within[keep]] = sorted_cols[keep]
        weights[sorted_rows[keep], within[keep]] = sorted_counts[keep]
        self._neighbors = neighbors
        self._weights = weights

    def _candidates(self, history, objective, user_index):
        return self._candidates_batch([history], np.array([objective]), [user_index])[0]

    def _candidates_batch(self, histories, objectives, user_indices):
        assert self._neighbors is not None and self._weights is not None
        vocab = self._neighbors.shape[0]
        count = len(histories)
        # Every context's frontier as ``context * vocab + item`` keys: sorted,
        # so each context's items ascend and contexts never mix.
        tails = [history[-self.history_window :] for history in histories]
        sizes = [len(tail) for tail in tails]
        recent = np.fromiter(itertools.chain.from_iterable(tails), dtype=np.int64, count=sum(sizes))
        seeds = np.concatenate([recent, objectives])
        owners = np.concatenate([np.repeat(np.arange(count), sizes), np.arange(count)])
        real = (seeds >= 1) & (seeds < vocab)
        frontier = np.unique(owners[real] * vocab + seeds[real])

        # Touched item keys (ascending) and their summed weight, accumulated
        # hop by hop in the order a per-context, per-item loop would add
        # them; a context leaves the frontier once it stops expanding.
        items = np.empty(0, dtype=np.int64)
        weights = np.empty(0, dtype=np.float64)
        for hop in range(self.expansion_hops):
            if not frontier.size:
                break
            hop_weight = 1.0 / (hop + 1)  # later hops count less
            context, item = np.divmod(frontier, vocab)
            neighbor_keys = (context[:, None] * vocab + self._neighbors[item]).ravel()
            neighbor_weights = self._weights[item].ravel()
            live = neighbor_weights > 0
            neighbor_keys = neighbor_keys[live]
            neighbor_weights = neighbor_weights[live] * hop_weight
            unique, inverse = np.unique(neighbor_keys, return_inverse=True)
            summed = np.bincount(inverse, weights=neighbor_weights, minlength=unique.size)
            at = np.searchsorted(items, unique)
            known = at < items.size
            known[known] = items[at[known]] == unique[known]
            weights[at[known]] += summed[known]
            frontier = unique[~known]  # first touched in this hop
            items = np.concatenate([items, frontier])
            weights = np.concatenate([weights, summed[~known]])
            order = np.argsort(items, kind="stable")
            items, weights = items[order], weights[order]
            # a context stops once it holds enough items or touched none new
            expanding = np.bincount(frontier // vocab, minlength=count) > 0
            expanding &= np.bincount(items // vocab, minlength=count) < self.num_candidates
            frontier = frontier[expanding[frontier // vocab]]

        # Each context's top num_candidates by (weight desc, item asc).
        context = items // vocab
        order = np.lexsort((items, -weights, context))
        context = context[order]
        starts = np.searchsorted(context, np.arange(count + 1))
        rank = np.arange(order.size) - starts[context]
        shortlisted = rank < self.num_candidates
        picked = items[order[shortlisted]] - context[shortlisted] * vocab
        bounds = np.searchsorted(context[shortlisted], np.arange(count + 1))
        # no touched item: cold seeds, fall back to the full vocabulary
        return [
            picked[bounds[i] : bounds[i + 1]] if starts[i + 1] > starts[i] else None
            for i in range(count)
        ]
