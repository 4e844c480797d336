"""Batch-level bookkeeping for an incremental decoding run.

A :class:`DecodingSession` is the state of a batch of growing sequences as
ndarrays:

* ``tokens`` — the ``(rows, width)`` int64 block of every row's real tokens,
  right-aligned and left-padded with :data:`~repro.data.padding.PAD_INDEX`;
  its columns are the (possibly left-padded) prefix columns a scorer has
  encoded, and a new token is always written to the next column on the
  right;
* ``roots`` — per row, the *root* (initial row, i.e. planning context) it
  descends from, indexing the **root block**: ``root_tokens`` /
  ``root_lengths`` and each root's user, objective and impressionability
  factor, all fixed when the session begins.  A row's ``lengths``, ``users``,
  ``objectives`` and ``impressionability`` are its root's, read through
  ``roots`` (every row grows by one token per step, so its length is its
  root's plus ``steps``).  A session in *shortlist space* (a pruned plan)
  also keeps the scorer's projection rows of each root's shortlist — a row
  of the plan's ``(roots, K)`` item table — as ``root_candidate_rows``
  (``(roots, K, d)``, gathered once from the program that began the
  session); every advance scores each row at its root's shortlist through
  ``candidate_rows`` and returns ``(rows, K)``.

Every session is objective-conditioned: each root has an objective, and
every advance scores its rows against their roots' objectives through the
PIM.  The beam-search planner drives it through
:meth:`~repro.core.irn.IRN.begin_decoding_session` /
:meth:`~repro.core.irn.IRN.advance_decoding_session`; between depths it
calls :meth:`select` to gather the surviving hypotheses (pruning,
duplication and re-ranking are all just row gathers: one fancy index of the
token block and of ``roots``, plus the K/V arena reorder where one exists)
and :meth:`append` to write each row's newly appended token as one column.

Which of the three regimes of :mod:`repro.cache.kv` an advance runs in is
decided by the scorer from what the session records:

* ``incremental`` (the causal mask, or one layer) — ``state`` holds per-layer
  prefix K/V that persist *across* depths; an advance encodes the new token.
* shared within a depth (objective-revealing masks at two or more layers) —
  nothing a row appended persists across depths, so ``state`` is ``None``
  and no K/V arena exists; ``roots`` let an advance encode each live root's
  history once and each row's ``steps`` appended tokens against it.  What
  does not change across depths — the roots' history embeddings and their
  first layer's normalised Q/K/V — is computed once per session by the
  scorer and kept in ``root_cache``.
* per-row window — a row outgrew the model's position table
  (:meth:`degrade` drops the state of an incremental session for good) and
  every advance re-encodes the sliding window of every row, sliced from the
  right of the token block.
"""

from __future__ import annotations

import numpy as np

from repro.cache.kv import DecodingState
from repro.data.padding import PAD_INDEX
from repro.utils.exceptions import ConfigurationError

__all__ = ["DecodingSession"]


class DecodingSession:
    """State of one incremental decoding run over a batch of growing rows.

    ``tokens`` is the right-aligned ``(rows, width)`` block of the rows'
    real tokens and ``lengths`` their counts; both become the root block.
    """

    def __init__(
        self,
        tokens: np.ndarray,
        lengths: np.ndarray,
        users: np.ndarray,
        objectives: np.ndarray,
        state: DecodingState | None,
        incremental: bool,
        impressionability: np.ndarray | None = None,
        candidate_rows: np.ndarray | None = None,
    ) -> None:
        self.root_tokens = np.array(tokens, dtype=np.int64)
        self.root_lengths = np.array(lengths, dtype=np.int64)
        self.root_users = np.array(users, dtype=np.int64)
        self.root_objectives = np.array(objectives, dtype=np.int64)
        #: per-root ``r_u`` (personalized masks only)
        self.root_impressionability = impressionability
        #: per-root shortlist projection rows ``(roots, K, d)`` (shortlist
        #: space only)
        self.root_candidate_rows = candidate_rows
        self.state = state
        self.incremental = bool(incremental)
        #: number of (possibly left-padded) prefix columns encoded so far
        self.width = self.root_tokens.shape[1]
        #: per-row index into the root block, gathered by :meth:`select`
        self.roots = np.arange(len(self.root_tokens), dtype=np.int64)
        #: tokens appended to every row since the session began
        self.steps = 0
        #: what a scorer keeps of the roots for the whole session (its own type)
        self.root_cache = None
        self._tokens = self.root_tokens.copy()  # columns past ``width`` are spare

    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:
        return len(self.roots)

    @property
    def tokens(self) -> np.ndarray:
        """The right-aligned ``(rows, width)`` token block (a view)."""
        return self._tokens[:, : self.width]

    @property
    def lengths(self) -> np.ndarray:
        """Real (non-padding) token count of every row."""
        return self.root_lengths[self.roots] + self.steps

    @property
    def users(self) -> np.ndarray:
        return self.root_users[self.roots]

    @property
    def objectives(self) -> np.ndarray:
        return self.root_objectives[self.roots]

    @property
    def impressionability(self) -> "np.ndarray | None":
        """Per-row ``r_u`` (personalized masks only)."""
        if self.root_impressionability is None:
            return None
        return self.root_impressionability[self.roots]

    @property
    def candidate_rows(self) -> "np.ndarray | None":
        """Per-row ``(rows, K, d)`` projection rows (shortlist space only)."""
        if self.root_candidate_rows is None:
            return None
        return self.root_candidate_rows[self.roots]

    @property
    def rows(self) -> "list[list[int]]":
        """Every row's real tokens as a list (for inspection; scorers read :attr:`tokens`)."""
        return [
            row[len(row) - length :]
            for row, length in zip(self.tokens.tolist(), self.lengths.tolist())
        ]

    # ------------------------------------------------------------------ #
    def select(self, parent_rows: "list[int] | np.ndarray") -> None:
        """Gather the session down to ``parent_rows`` (repeats allowed)."""
        parent_rows = np.asarray(parent_rows, dtype=np.int64)
        if parent_rows.size and (
            parent_rows.min() < 0 or parent_rows.max() >= self.batch_size
        ):
            raise ConfigurationError(
                f"parent rows out of range for a batch of {self.batch_size}"
            )
        self._tokens = self._tokens[parent_rows]
        self.roots = self.roots[parent_rows]
        if self.state is not None:
            self.state.reorder(parent_rows)

    def append(self, new_items: "list[int] | np.ndarray") -> None:
        """Write one newly appended token per row (uniform growth) as the next column."""
        new_items = np.asarray(new_items, dtype=np.int64)
        if new_items.shape != (self.batch_size,):
            raise ConfigurationError(
                f"expected {self.batch_size} new items, got shape {new_items.shape}"
            )
        if self.width == self._tokens.shape[1]:
            grown = np.full(
                (self.batch_size, max(2 * self.width, 8)), PAD_INDEX, dtype=np.int64
            )
            grown[:, : self.width] = self.tokens
            self._tokens = grown
        self._tokens[:, self.width] = new_items
        self.width += 1
        self.steps += 1

    def degrade(self) -> None:
        """Permanently drop the K/V state and fall back to full re-encoding."""
        self.incremental = False
        self.state = None
