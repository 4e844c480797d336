"""The object beam the planner's slot arrays replaced, kept as the tie-order oracle.

This is ``repro.core.beam`` as it planned before its beams became arrays —
one frozen :class:`_Hypothesis` per child, a per-instance stable sort by
``_Hypothesis.score`` — with the list form of ``mask_session_items`` it
masked through, unchanged.  :class:`ReferenceBeamPlanner` swaps it in for
:meth:`BeamSearchPlanner._lockstep_beam`, so everything around the beam
(plan cache, shortlists) is the planner's own and any difference in the
plans is the beam's.

It scores through the backbone's decoding sessions, as the planner does,
or — ``sessions=False`` — re-scores every hypothesis' full right-aligned
window at every depth with one ``score_with_objective_batch`` call, given
the ``(rows, K)`` shortlist table when the plan is pruned: the oracle the
sessions' plans are held to.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core import beam
from repro.core.influence_path import log_softmax_rows
from repro.obs.trace import current_sink


@dataclass(frozen=True)
class _Hypothesis:
    """One partial path inside the beam."""

    items: tuple[int, ...]
    log_probability: float
    reached: bool
    #: row index of the parent in the previous depth's scoring batch — the
    #: decoding-session cache row this hypothesis extends (compare=False so
    #: hypothesis identity stays purely semantic).
    parent_row: int = field(default=-1, compare=False)

    def score(self, objective_bonus: float) -> float:
        """Length-normalised log-probability plus the completion bonus."""
        length = max(len(self.items), 1)
        return self.log_probability / length + (objective_bonus if self.reached else 0.0)


def mask_session_items(
    scores: np.ndarray,
    sequences: Sequence[Sequence[int]],
    objectives: Sequence[int],
    row_items: "np.ndarray | None" = None,
) -> np.ndarray:
    """Mask already-seen session items out of batched next-item scores, in place.

    ``scores`` is ``(batch, vocab)``; row ``b`` gets ``-inf`` at every item of
    ``sequences[b]`` except ``objectives[b]`` (the objective may always be
    re-recommended, terminating the path).  This is the vectorised equivalent
    of the per-item Python loop in Algorithm 1's no-repeat rule: one fancy
    indexed assignment instead of ``O(batch * length)`` interpreter steps.

    With ``row_items`` the scores live in *shortlist space*: ``scores`` is
    ``(batch, C)`` and column ``c`` of row ``b`` is item ``row_items[b, c]``,
    each row in non-decreasing item order (a ragged row is padded by
    repeating its last item).  Every ``(row, seen item)`` pair is then
    located by one search over the flattened rows, and the first cell
    holding the item — the real one, never a padding repeat — is masked.
    """
    lengths = [len(sequence) for sequence in sequences]
    total = sum(lengths)
    if not total:
        return scores
    batch = np.arange(scores.shape[0])
    objective_columns = np.asarray(list(objectives), dtype=np.int64)
    row_index = np.repeat(batch, lengths)
    column_index = np.fromiter(
        itertools.chain.from_iterable(sequences), dtype=np.int64, count=total
    )
    if row_items is None:
        objective_scores = scores[batch, objective_columns].copy()
        scores[row_index, column_index] = -np.inf
        scores[batch, objective_columns] = objective_scores
        return scores
    seen = column_index != objective_columns[row_index]
    row_index, column_index = row_index[seen], column_index[seen]
    # One key per cell, ``item + row * stride``: rows are sorted, so the
    # flattened keys are too.  The stride must exceed every id *searched
    # for*, not just every shortlisted one — a seen item above its row's
    # largest candidate would otherwise alias into a later row's key range.
    stride = max(int(row_items.max()), int(column_index.max(initial=0))) + 1
    keys = (row_items + batch[:, None] * stride).ravel()
    wanted = column_index + row_index * stride
    cells = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    found = keys[cells] == wanted
    scores[row_index[found], cells[found] % row_items.shape[1]] = -np.inf
    return scores


class ReferenceBeamPlanner(beam.BeamSearchPlanner):
    """A :class:`~repro.core.beam.BeamSearchPlanner` planning with the object beam.

    ``sessions=False`` re-scores every hypothesis instead of advancing a
    decoding session (see the module docstring).
    """

    def __init__(self, backbone, *, sessions: bool = True, **knobs) -> None:
        super().__init__(backbone, **knobs)
        self.sessions = sessions

    def _rescore(
        self,
        sequences: list[list[int]],
        objectives: list[int],
        user_indices: "list[int | None]",
        row_items: "np.ndarray | None",
    ) -> np.ndarray:
        """Score every row's full window: ``(rows, vocab)``, or ``(rows, K)``
        at each row's shortlist."""
        return np.array(
            self.backbone.score_with_objective_batch(
                sequences, objectives, user_indices, candidate_items=row_items
            ),
            dtype=np.float64,
        )

    def _expand_all(
        self,
        parents: list[_Hypothesis],
        sequences: list[list[int]],
        objectives: list[int],
        user_indices: "list[int | None]",
        scores: np.ndarray | None = None,
        row_items: "np.ndarray | None" = None,
    ) -> list[list[_Hypothesis]]:
        """Expand many hypotheses with ONE batched scoring call.

        Returns the children of each parent in the same order the scalar
        implementation produced them: descending log-probability with ties
        broken by item index (the stable-``argsort`` order), non-finite
        candidates dropped.  ``scores`` may carry pre-computed backbone
        scores for the rows (the decoding-session path); otherwise every
        row is re-scored here (:meth:`_rescore`).

        Under candidate pruning the whole expansion runs in *shortlist
        space*: ``row_items`` is the ``(rows, C)`` table of each row's own
        shortlist in ascending item order — a shorter shortlist padded by
        repeating its last item — and scores, masking, the log-softmax
        (probabilities renormalise over the row's shortlist, the documented
        approximation) and the top-k all work on ``(rows, C)`` blocks;
        winners map back to items through the table.  Ascending columns
        keep the (value desc, item asc) tie order of the full-vocabulary
        path, which is the same code with no table.
        """
        if scores is None:
            scores = self._rescore(sequences, objectives, user_indices, row_items)
        if row_items is not None:
            # a cell repeating its left neighbour is padding, not a candidate
            scores[:, 1:][row_items[:, 1:] == row_items[:, :-1]] = -np.inf
        mask_session_items(scores, sequences, objectives, row_items=row_items)
        log_probs = log_softmax_rows(scores)
        _, columns = log_probs.shape
        k = min(self.branch_factor, columns)
        # Per-hypothesis top-k in stable-argsort order (value desc, index asc).
        top, top_values = beam.sharded_topk(log_probs, k)
        if row_items is not None:
            top = np.take_along_axis(row_items, top, axis=1)
        # One conversion to Python scalars per depth, not three per child.
        finite = np.isfinite(top_values).tolist()
        top, top_values = top.tolist(), top_values.tolist()
        expansions: list[list[_Hypothesis]] = []
        for row, parent in enumerate(parents):
            objective = objectives[row]
            children = [
                _Hypothesis(
                    items=parent.items + (item,),
                    log_probability=parent.log_probability + value,
                    reached=item == objective,
                    parent_row=row,
                )
                for item, value, keep in zip(top[row], top_values[row], finite[row])
                if keep
            ]
            expansions.append(children)
        return expansions

    def _lockstep_beam(
        self,
        histories: list[list[int]],
        objectives: list[int],
        users: "list[int | None]",
        pending: list[int],
        max_length: int,
        table: "np.ndarray | None" = None,
    ) -> list[list[int]]:
        """Run the lockstep beam search for the ``pending`` instance subset.

        ``table`` — row ``n`` the padded shortlist of ``pending[n]`` — puts
        the whole search in shortlist space (see :meth:`_expand_all`);
        without it every row scores the full vocabulary.
        """
        beams: dict[int, list[_Hypothesis]] = {
            i: [_Hypothesis(items=(), log_probability=0.0, reached=False)] for i in pending
        }
        completes: dict[int, list[_Hypothesis]] = {i: [] for i in pending}
        running = list(pending)
        session = None
        slots = {i: slot for slot, i in enumerate(pending)}
        # Per-depth expansion spans broadcast to every trace of the drained
        # micro-batch (depth work is fused across the whole batch, so
        # batch-level attribution is the honest granularity); None when the
        # batch is untraced.
        sink = current_sink()

        for depth in range(max_length):
            if not running:
                break
            depth_started = time.perf_counter() if sink is not None else 0.0
            # Collect the live hypotheses of every running instance (beam
            # order preserved); reached hypotheses retire to the complete set.
            parents: list[_Hypothesis] = []
            owners: list[int] = []
            sequences: list[list[int]] = []
            for i in running:
                for hypothesis in beams[i]:
                    if hypothesis.reached:
                        completes[i].append(hypothesis)
                        continue
                    parents.append(hypothesis)
                    owners.append(i)
                    sequences.append(histories[i] + list(hypothesis.items))
            if not parents:
                running = []
                break
            row_objectives = [objectives[i] for i in owners]
            row_users = [users[i] for i in owners]
            scores: np.ndarray | None = None
            if self.sessions:
                if session is None:
                    # Depth 0: parents are the empty roots, one per instance
                    # in slot order, so the table's rows are theirs.
                    scores, session = self.backbone.begin_decoding_session(
                        sequences, row_objectives, row_users, candidate_items=table
                    )
                else:
                    # Later depths: gather each survivor's session row and
                    # append its new token.
                    scores = self.backbone.advance_decoding_session(
                        session,
                        [hypothesis.items[-1] for hypothesis in parents],
                        [hypothesis.parent_row for hypothesis in parents],
                    )
                scores = np.asarray(scores, dtype=np.float64).copy()
            expansions = self._expand_all(
                parents,
                sequences,
                row_objectives,
                row_users,
                scores=scores,
                row_items=None if table is None else table[[slots[i] for i in owners]],
            )
            candidates: dict[int, list[_Hypothesis]] = {i: [] for i in running}
            for owner, children in zip(owners, expansions):
                candidates[owner].extend(children)
            still_running: list[int] = []
            for i in running:
                if not candidates[i]:
                    continue  # this instance's beam is frozen (scalar `break`)
                candidates[i].sort(key=lambda h: h.score(self.objective_bonus), reverse=True)
                beams[i] = candidates[i][: self.beam_width]
                still_running.append(i)
            if sink is not None:
                sink.batch_span(
                    "beam.depth",
                    depth_started,
                    time.perf_counter(),
                    depth=depth,
                    rows=len(parents),
                    instances=len(still_running),
                )
            running = still_running

        paths: list[list[int]] = []
        for i in pending:
            completes[i].extend(h for h in beams[i] if h.reached)
            pool = completes[i] if completes[i] else beams[i]
            if not pool:
                paths.append([])
                continue
            best = max(pool, key=lambda h: h.score(self.objective_bonus))
            paths.append(list(best.items))
        return paths
