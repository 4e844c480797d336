"""Two-stage retrieval: candidate generation in front of exact beam scoring.

Production recommender stacks never score the full catalogue per step —
a cheap first stage shortlists a few hundred candidates, and the expensive
model ranks *exactly* within the shortlist.  This package provides that
first stage for the IRN beam planner:

* :class:`~repro.retrieval.base.CandidateGenerator` — the protocol: fit on
  a corpus, then map ``(history, objective, user)`` to a per-context
  candidate index set (or ``None`` to fall back to the full vocabulary).
* :class:`~repro.retrieval.ann.EmbeddingANNGenerator` — cosine shortlist
  over :mod:`repro.embeddings` vectors with an IVF-style coarse index
  (exact brute force below a size threshold).
* :class:`~repro.retrieval.cooccurrence.CooccurrenceNeighborGenerator` —
  sparse co-occurrence neighbour expansion from the recent history and the
  objective.
* :class:`~repro.retrieval.base.FullVocabGenerator` — the identity
  generator; drives the pruned machinery with full coverage, which the
  planner routes to the exact path (the ``full_vocab_parity`` contract
  bit).
* :mod:`~repro.retrieval.metrics` — overlap@k and plan-regret, the
  first-class approximation metrics of the scale bench.

Exactness contract: scoring over a candidate set yields logits *identical*
to slicing full-vocabulary scores at those candidates; pruning only
restricts which items may be proposed.  ``shard.topk``'s exact stable
top-k remains the full-vocabulary oracle.
"""

from repro.retrieval.ann import EmbeddingANNGenerator
from repro.retrieval.base import (
    CandidateGenerator,
    FullVocabGenerator,
    retrieval_registry,
)
from repro.retrieval.config import make_generator
from repro.retrieval.cooccurrence import CooccurrenceNeighborGenerator
from repro.retrieval.metrics import overlap_at_k, path_score, plan_regret

__all__ = [
    "CandidateGenerator",
    "CooccurrenceNeighborGenerator",
    "EmbeddingANNGenerator",
    "FullVocabGenerator",
    "make_generator",
    "overlap_at_k",
    "path_score",
    "plan_regret",
    "retrieval_registry",
]
