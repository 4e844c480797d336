"""Batch-level bookkeeping for an incremental decoding run.

A :class:`DecodingSession` ties the per-row context of a batch of growing
sequences — the real tokens of every row, its user index, its objective,
its impressionability factor and the *root* (initial row, i.e. planning
context) it descends from — to whatever the scorer keeps between depths.
The beam-search planner drives it through
:meth:`~repro.core.irn.IRN.begin_decoding_session` /
:meth:`~repro.core.irn.IRN.advance_decoding_session`; between depths it
calls :meth:`select` to gather the surviving hypotheses (pruning,
duplication and re-ranking are all just row gathers) and :meth:`append` to
record each row's newly appended token.

Which of the three regimes of :mod:`repro.cache.kv` an advance runs in is
decided by the scorer from what the session records:

* ``incremental`` (causal masks, or one layer) — ``state`` holds per-layer
  prefix K/V that persist *across* depths; an advance encodes the new token.
* shared within a depth (objective-revealing masks at two or more layers) —
  nothing persists across depths, so ``state`` is ``None`` and no K/V arena
  exists (a depth's shared history K/V are plain arrays inside the advance);
  ``roots`` and ``root_rows`` let an advance encode each live root's history
  once and each row's ``steps`` appended tokens against it.
* per-row window — a row outgrew the model's position table
  (:meth:`degrade` drops the state of an incremental session for good) and
  every advance re-encodes the sliding window of every row.
"""

from __future__ import annotations

import numpy as np

from repro.cache.kv import DecodingState
from repro.utils.exceptions import ConfigurationError

__all__ = ["DecodingSession"]


class DecodingSession:
    """State of one incremental decoding run over a batch of growing rows."""

    def __init__(
        self,
        rows: list[list[int]],
        users: np.ndarray,
        objectives: list[int] | None,
        state: DecodingState | None,
        incremental: bool,
        width: int,
        impressionability: np.ndarray | None = None,
    ) -> None:
        self.rows = [list(row) for row in rows]
        self.users = np.asarray(users, dtype=np.int64)
        self.objectives = None if objectives is None else [int(o) for o in objectives]
        self.state = state
        self.incremental = bool(incremental)
        #: number of (possibly left-padded) prefix columns currently cached
        self.width = int(width)
        #: per-row ``r_u`` (personalized masks only), gathered alongside the rows
        self.impressionability = impressionability
        #: the initial rows (never gathered): ``root_rows[roots[b]]`` is the
        #: context row ``b`` grew from, shared by every hypothesis of one beam
        self.root_rows = [list(row) for row in rows]
        #: per-row index into :attr:`root_rows`, gathered alongside the rows
        self.roots = np.arange(len(rows), dtype=np.int64)
        #: tokens appended to every row since the session began
        self.steps = 0

    # ------------------------------------------------------------------ #
    @property
    def batch_size(self) -> int:
        return len(self.rows)

    @property
    def lengths(self) -> np.ndarray:
        """Real (non-padding) token count of every row."""
        return np.asarray([len(row) for row in self.rows], dtype=np.int64)

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
        self.rows = [list(self.rows[int(row)]) for row in parent_rows]
        self.users = self.users[parent_rows]
        self.roots = self.roots[parent_rows]
        if self.objectives is not None:
            self.objectives = [self.objectives[int(row)] for row in parent_rows]
        if self.impressionability is not None:
            self.impressionability = self.impressionability[parent_rows]
        if self.state is not None:
            self.state.reorder(parent_rows)

    def append(self, new_items: "list[int] | np.ndarray") -> None:
        """Record one newly appended token per row (uniform growth)."""
        new_items = np.asarray(new_items, dtype=np.int64)
        if new_items.shape != (self.batch_size,):
            raise ConfigurationError(
                f"expected {self.batch_size} new items, got shape {new_items.shape}"
            )
        for row, item in zip(self.rows, new_items):
            row.append(int(item))
        self.width += 1
        self.steps += 1

    def degrade(self) -> None:
        """Permanently drop the K/V state and fall back to full re-encoding."""
        self.incremental = False
        self.state = None
