"""The candidate-generator protocol behind two-stage retrieval.

A generator is fitted once on a corpus and then queried for a batch of
planning contexts at once.  :meth:`CandidateGenerator.candidates_batch`
returns, per context, a sorted, unique ``int64`` index array that ALWAYS
contains the objective (a candidate set that cannot reach the objective
would make the planner structurally unable to complete a path), or
``None`` to signal a full-vocabulary fallback — e.g. when the context gives
the generator nothing to anchor on.  :meth:`CandidateGenerator.candidates`
is its batch of one.  Planners count fallbacks in the ``core.retrieval``
metric scope.

Cache-key discipline: :meth:`retrieval_key` is a hashable tuple combining
the generator's configuration with its ``fit_generation``; the beam
planner mixes it into every plan/step cache key, so pruned plans can never
alias exact plans (or plans pruned under a different generator fit).
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.utils.batch import broadcast_user_indices, check_batch_lengths
from repro.utils.exceptions import ConfigurationError, NotFittedError
from repro.utils.registry import Registry

__all__ = ["CandidateGenerator", "FullVocabGenerator", "retrieval_registry"]

#: name -> generator class, for CLI construction by short name.
retrieval_registry: "Registry[CandidateGenerator]" = Registry("candidate generator")


class CandidateGenerator(abc.ABC):
    """Base class: fit on a corpus, emit per-context candidate sets."""

    name = "candidates"

    def __init__(self, num_candidates: int = 256) -> None:
        if num_candidates < 1:
            raise ConfigurationError(
                f"num_candidates must be >= 1, got {num_candidates}"
            )
        self.num_candidates = int(num_candidates)
        self.vocab_size: int | None = None
        self.fit_generation = 0

    # -- fitting -----------------------------------------------------------

    def fit(self, corpus) -> "CandidateGenerator":
        """Fit on any corpus-like object (``vocab.size`` + ``user_sequences``)."""
        vocab_size = int(corpus.vocab.size)
        if vocab_size < 2:
            raise ConfigurationError("corpus has no real items")
        self._fit(corpus, vocab_size)
        self.vocab_size = vocab_size
        self.fit_generation += 1
        return self

    @abc.abstractmethod
    def _fit(self, corpus, vocab_size: int) -> None:
        """Subclass hook: build the retrieval index."""

    @property
    def is_fitted(self) -> bool:
        return self.vocab_size is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted first")

    # -- querying ----------------------------------------------------------

    def candidates(
        self,
        history: Sequence[int],
        objective: int,
        user_index: "int | None" = None,
    ) -> "np.ndarray | None":
        """Sorted unique candidate indices for one context, or ``None``.

        A batch of one :meth:`candidates_batch` call.
        """
        return self.candidates_batch([history], [objective], [user_index])[0]

    def candidates_batch(
        self,
        histories: Sequence[Sequence[int]],
        objectives: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> "list[np.ndarray | None]":
        """Every context's candidate set, in one pass over the batch.

        Entry ``i`` is ``None`` for "no shortlist for this context" — the
        caller falls back to full-vocabulary scoring — or an array
        guaranteed sorted, unique, within ``[1, vocab_size)`` and to contain
        ``objectives[i]``, whatever else the batch holds.
        """
        self._require_fitted()
        vocab = self.vocab_size
        assert vocab is not None
        count = len(histories)
        objectives = np.fromiter(map(int, objectives), dtype=np.int64)
        check_batch_lengths(count, objectives=objectives)
        users = broadcast_user_indices(count, user_indices)
        outside = (objectives < 1) | (objectives >= vocab)
        if outside.any():
            raise ConfigurationError(
                f"objective {objectives[outside][0]} outside [1, {vocab})"
            )
        raw = self._candidates_batch(histories, objectives, users)
        shortlisted = [i for i, cands in enumerate(raw) if cands is not None]
        results: "list[np.ndarray | None]" = [None] * count
        if not shortlisted:
            return results
        # Finish every set at once on ``context * vocab + item`` keys: keep
        # real items, add the objective, sort and deduplicate per context.
        parts = [np.asarray(raw[i], dtype=np.int64).ravel() for i in shortlisted]
        items = np.concatenate(parts + [objectives[shortlisted]])
        owners = np.arange(len(shortlisted))
        contexts = np.concatenate([np.repeat(owners, [part.size for part in parts]), owners])
        real = (items >= 1) & (items < vocab)
        keys = np.unique(contexts[real] * vocab + items[real])
        bounds = np.searchsorted(keys, np.arange(len(shortlisted) + 1) * vocab)
        keys -= np.repeat(owners * vocab, np.diff(bounds))
        for n, i in enumerate(shortlisted):
            results[i] = keys[bounds[n] : bounds[n + 1]]
        return results

    def _candidates_batch(
        self,
        histories: Sequence[Sequence[int]],
        objectives: np.ndarray,
        user_indices: "list[int | None]",
    ) -> "list[np.ndarray | None]":
        """Subclass hook: every context's raw candidates, or ``None``.

        The default asks :meth:`_candidates` once per context.
        """
        return [
            self._candidates(history, int(objective), user)
            for history, objective, user in zip(histories, objectives, user_indices)
        ]

    @abc.abstractmethod
    def _candidates(
        self,
        history: Sequence[int],
        objective: int,
        user_index: "int | None",
    ) -> "np.ndarray | None":
        """Subclass hook: raw candidate indices (any order, dupes allowed)."""

    # -- cache keys --------------------------------------------------------

    def config_key(self) -> tuple:
        """Hashable configuration identity (stable across refits)."""
        return (self.name, self.num_candidates) + self._config_extras()

    def _config_extras(self) -> tuple:
        """Subclass hook: extra hashable config fields for the cache key."""
        return ()

    def retrieval_key(self) -> tuple:
        """Config + fit-generation identity mixed into planner cache keys."""
        return (self.config_key(), self.fit_generation)


@retrieval_registry.register("full")
class FullVocabGenerator(CandidateGenerator):
    """The identity generator: every real item is always a candidate.

    Exists for the ``full_vocab_parity`` contract: driving the pruned
    planning machinery with full coverage must produce plans bit-identical
    to exact planning (the planner plans a context whose candidates cover
    every real item on the exact full-vocabulary path).
    """

    name = "full"

    def __init__(self, num_candidates: int = 1) -> None:
        # num_candidates is irrelevant here; accept and ignore the knob so
        # the registry can construct every generator uniformly.
        super().__init__(num_candidates=max(1, num_candidates))

    def _fit(self, corpus, vocab_size: int) -> None:
        self._all_items = np.arange(1, vocab_size, dtype=np.int64)

    def _candidates(self, history, objective, user_index):
        return self._all_items
