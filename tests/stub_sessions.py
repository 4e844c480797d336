"""Decoding sessions for score-function stubs.

The beam planner scores only through a backbone's decoding sessions
(``begin_decoding_session`` / ``advance_decoding_session``).  A stub that
pins the planner's tie order, padding or top-k on hand-picked scores
defines one method, ``score_rows(sequences, objectives, user_indices)`` —
the ``(rows, vocab)`` scores of every row — and mixes in
:class:`StubSessions`, which gives it:

* ``score_with_objective_batch``, with the per-row ``(rows, K)``
  ``candidate_items`` table IRN takes (the full scores gathered at it);
* sessions that keep every row's tokens and re-score them all at every
  advance through that scorer, so a stub's plans are those of re-scoring
  every hypothesis' window.
"""

from __future__ import annotations

import numpy as np


class StubSession:
    """The rows of a stub's decoding session, as lists, and their roots."""

    def __init__(self, sequences, objectives, user_indices, candidate_items) -> None:
        self.rows = [[int(item) for item in sequence] for sequence in sequences]
        self.roots = np.arange(len(self.rows))
        self.root_objectives = [int(objective) for objective in objectives]
        self.root_users = (
            [None] * len(self.rows) if user_indices is None else list(user_indices)
        )
        self.root_table = None if candidate_items is None else np.asarray(candidate_items)

    def select(self, parent_rows) -> None:
        parent_rows = np.asarray(parent_rows, dtype=np.int64)
        self.rows = [list(self.rows[row]) for row in parent_rows.tolist()]
        self.roots = self.roots[parent_rows]

    def append(self, new_items) -> None:
        for row, item in zip(self.rows, np.asarray(new_items).tolist()):
            row.append(int(item))


class StubSessions:
    """Mixin: the batched scorer and decoding sessions of a ``score_rows`` stub."""

    def score_rows(self, sequences, objectives, user_indices) -> np.ndarray:
        raise NotImplementedError

    def score_with_objective_batch(
        self, sequences, objectives, user_indices=None, candidate_items=None
    ) -> np.ndarray:
        users = [None] * len(sequences) if user_indices is None else list(user_indices)
        scores = np.array(
            self.score_rows([list(s) for s in sequences], list(objectives), users),
            dtype=np.float64,
        )
        if candidate_items is None:
            return scores
        return np.take_along_axis(scores, np.asarray(candidate_items), axis=1)

    def begin_decoding_session(
        self, sequences, objectives, user_indices=None, candidate_items=None
    ):
        session = StubSession(sequences, objectives, user_indices, candidate_items)
        return self._rescore(session), session

    def advance_decoding_session(self, session, new_items, parent_rows=None):
        if parent_rows is not None:
            session.select(parent_rows)
        session.append(new_items)
        return self._rescore(session)

    def _rescore(self, session: StubSession) -> np.ndarray:
        roots = session.roots.tolist()
        return self.score_with_objective_batch(
            session.rows,
            [session.root_objectives[root] for root in roots],
            [session.root_users[root] for root in roots],
            None if session.root_table is None else session.root_table[session.roots],
        )
