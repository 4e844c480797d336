"""Beam-search influence-path planning.

Algorithm 1 of the paper generates the influence path greedily: at each step
the single highest-probability item (given the objective through the PIM) is
appended.  Greedy decoding can paint the path into a corner — exactly the
limitation the paper attributes to Rec2Inf ("the local optimal selections may
not ultimately reach the global optimal influence path", §III-C).

:class:`BeamSearchPlanner` wraps a backbone with objective-conditioned
decoding sessions (:meth:`~repro.core.irn.IRN.begin_decoding_session` /
:meth:`~repro.core.irn.IRN.advance_decoding_session`; IRN has them) and
plans the whole path with beam search instead.  Hypotheses are scored by
their average per-step log-probability plus a terminal bonus for reaching the
objective; the best complete hypothesis (or the best partial one, if none is
complete) becomes the influence path.  Width 1, branch factor 1 and no
bonus is Algorithm 1 itself: IRN's ``generate_paths_batch`` plans through
that configuration.

The planner also implements the standard
:class:`~repro.core.base.InfluentialRecommender` interface, so it drops into
every evaluation protocol: ``next_step`` simply serves the next item of the
currently planned path and replans when the context changes.

Batched expansion
-----------------
Search is organised so that every transformer forward is as wide as
possible: at each depth, ALL live hypotheses — across the whole beam and,
via :meth:`BeamSearchPlanner.plan_paths_batch`, across every evaluation
instance being rolled out in lockstep — are scored by one call into the
backbone's decoding session, the only way the planner scores.

The beams themselves are arrays from the root to the returned paths.  A
lockstep beam over ``n`` instances holds fixed ``n · beam_width`` *slots*
(instance ``i`` owns slots ``i · beam_width …``, in beam order), and per
slot: an int64 token row — the instance's right-aligned history, then the
hypothesis' path, one column per depth —, a float64 ``log_probability``,
``reached`` / ``occupied`` masks and a parent row into the previous depth's
scoring batch (the hypothesis' decoding-session row).  Every hypothesis of
a depth has the same length, so its score is one vector expression —
length-normalised log-probability, then the objective bonus where reached.
Per depth the live rows are scored, seen items (the token block, padding
included) are masked by one fancy assignment, each row's top-``k`` comes
from one :func:`sharded_topk` call, and every instance keeps the best
``beam_width`` of its ``(beam_width · k)`` child block through one stable
argsort of the ``(instances, beam_width · k)`` block.

The tie order is the contract: children of one row in (value desc, item
asc) order, an instance's children ranked by a stable sort by score over
(parent order, child rank) — the order the object beam that preceded the
slots produced, which ``tests/core/reference_beam.py`` keeps as the oracle.
An instance without a child keeps its last beam and stops; its plan is the
first maximal complete hypothesis in retirement order (depth, then beam
order, then the final beam), else the first maximal hypothesis of its final
beam.  Paths become lists once, when the plans are returned.

Caching
-------
Two layers from :mod:`repro.cache` sit on top of the batched expansion:

* **Decoding sessions** — each lockstep beam begins one session on its
  roots, and each later depth gathers the session rows of the surviving
  hypotheses and appends their newest items: the backbone encodes only what
  it must instead of every hypothesis' full right-aligned window — the one
  newly appended token per hypothesis where prefix K/V reuse across depths
  is exact, otherwise each planning context's history once per depth plus
  every hypothesis' appended tokens (see :mod:`repro.cache.kv`).  Plans
  equal re-scoring every hypothesis' window, which the object beam of
  ``tests/core/reference_beam.py`` does with its sessions switched off.
* **Plan memoisation** — a bounded LRU :class:`~repro.cache.memo.PlanCache`
  keyed by ``(tuple(history), objective, user_index, max_length)`` short-
  circuits :meth:`plan_paths_batch` for contexts planned before, and a
  second LRU generalises the old single ``next_step`` replan slot so many
  interleaved serving contexts (e.g. the lockstep stepwise IRS evaluation)
  no longer thrash each other into constant replanning.  Both caches are
  invalidated by :meth:`fit` and whenever the backbone's ``fit_generation``
  changes (model retrain).

Concurrency
-----------
The planner is one partition: :meth:`plan_paths_batch` plans every pending
instance in the calling thread.  Threads that share a planner — the offline
evaluation protocol's rollout threads — are safe: both caches are
lock-guarded and every call's beam state is its own.  A backbone
retrained while a call plans is detected there (``fit_generation`` read
before and after) and raises
:class:`~repro.utils.exceptions.StaleGenerationError` instead of returning
plans computed under two sets of weights.

Two-stage retrieval
-------------------
With a ``candidate_generator`` a plan's scores live in *shortlist space*
from the projection to the top-k: one ``candidates_batch`` call gives every
pending context its shortlist, and one ``(instances, K)`` item table per
plan (each context's shortlist in ascending item order) is handed to the
decoding session (``begin_decoding_session(candidate_items=<(instances,
K)>)``), which keeps it — and its gathered projection rows — as root-block
state and projects every depth's rows onto their root's row.  Seen items
are masked (:func:`~repro.core.influence_path.mask_session_items`), the
shared masked log-softmax normalises and the top-k picks; winners map back
to items through the table.  A depth costs ``O(rows * K)`` — never the
vocabulary, never the union of the drain's shortlists — and ascending
columns keep the exact path's (value desc, item asc) tie order.  Contexts
without a shortlist plan in a second, exact lockstep beam.

Serving
-------
:meth:`BeamSearchPlanner.plan_for_requests` multiplexes heterogeneous
serving micro-batches of :class:`~repro.serve.request.ServeRequest`
envelopes — ``next_step`` and ``plan_paths`` requests mixed — into fused
planning calls; it is the drain target of the asynchronous serving loop
(:mod:`repro.serve`) and the routing layer both :meth:`next_step` and
:meth:`plan_path` go through as batches of one envelope.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cache.memo import PlanCache
from repro.core.base import InfluentialRecommender, influential_registry
from repro.core.influence_path import log_softmax_rows, mask_session_items
from repro.data.padding import PAD_INDEX, pre_pad_block
from repro.data.splitting import DatasetSplit
from repro.obs.registry import MetricGroup, get_registry
from repro.obs.trace import current_sink
from repro.shard.topk import stable_topk
from repro.utils.batch import broadcast_user_indices, check_batch_lengths
from repro.utils.exceptions import ConfigurationError, StaleGenerationError

if TYPE_CHECKING:  # pragma: no cover - import cycle: repro.serve imports MISS
    from repro.serve.request import ServeRequest

__all__ = ["BeamSearchPlanner", "MISS"]

logger = logging.getLogger(__name__)

sharded_topk = stable_topk  # the name benchmarks/e2e/tracing.py's SPAN_TABLE wraps


class _Miss:
    """Type of :data:`MISS` (a named singleton, so it reads well in a repr)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISS"


#: What :meth:`BeamSearchPlanner.serve_resident` returns when no resident
#: plan answers the request — ``None`` is taken: it is the end-of-plan answer.
MISS = _Miss()


def _hypothesis_scores(
    log_probability: np.ndarray,
    length: "int | np.ndarray",
    reached: "bool | np.ndarray",
    objective_bonus: float,
) -> np.ndarray:
    """Length-normalised log-probability plus the completion bonus.

    Divide, then add the bonus where the objective was reached: the order of
    operations the plans' tie contract is stated in.
    """
    return log_probability / np.maximum(length, 1) + np.where(reached, objective_bonus, 0.0)


def _first_maximum(mask: np.ndarray, values: np.ndarray) -> "tuple[np.ndarray, ...]":
    """Per row of two ``(rows, n)`` blocks: whether ``mask`` holds a cell, the
    first masked cell holding the largest masked value, and that value."""
    masked = np.where(mask, values, -np.inf)
    best = masked.max(axis=1)
    first = np.argmax(mask & (masked == best[:, None]), axis=1)
    return mask.any(axis=1), first, best


class _Beams:
    """The lockstep beams of one planning call, in fixed slots (see the module docstring).

    Besides the slot arrays, each instance keeps the path length of its
    beam and its best retired complete hypothesis.
    """

    def __init__(
        self,
        histories: "list[list[int]]",
        goals: np.ndarray,
        width: int,
        max_length: int,
        objective_bonus: float,
    ) -> None:
        self.goals = goals
        self.width = width
        self.objective_bonus = objective_bonus
        count, slots = len(goals), len(goals) * width
        history = pre_pad_block(histories)
        #: the column of a slot's first path item in :attr:`tokens`
        self.start = history.shape[1]
        self.tokens = np.full((slots, self.start + max_length), PAD_INDEX, dtype=np.int64)
        self.tokens[:, : self.start] = np.repeat(history, width, axis=0)
        self.log_probability = np.zeros(slots)
        self.reached = np.zeros(slots, dtype=bool)
        self.occupied = np.zeros(slots, dtype=bool)
        self.occupied[::width] = True  # every instance starts from its empty root
        self.parent_row = np.zeros(slots, dtype=np.int64)
        self.running = np.ones(count, dtype=bool)
        self.lengths = np.zeros(count, dtype=np.int64)
        self.complete = np.zeros(count, dtype=bool)
        self.complete_score = np.zeros(count)
        self.complete_path = np.zeros((count, max_length), dtype=np.int64)
        self.complete_length = np.zeros(count, dtype=np.int64)

    def live(self) -> np.ndarray:
        """Retire the running beams' reached hypotheses and return the slots
        to expand, in scoring-row order."""
        active = self.occupied & np.repeat(self.running, self.width)
        self._retire(active & self.reached)
        return np.flatnonzero(active & ~self.reached)

    def _retire(self, slots: np.ndarray) -> None:
        """Offer the reached hypotheses of the ``slots`` mask to their
        instances' complete sets, where the first maximal one wins."""
        if not slots.any():
            return
        count, width = len(self.goals), self.width
        scores = _hypothesis_scores(
            self.log_probability, np.repeat(self.lengths, width), True, self.objective_bonus
        )
        found, first, best = _first_maximum(
            slots.reshape(count, width), scores.reshape(count, width)
        )
        winners = np.flatnonzero(found & (~self.complete | (best > self.complete_score)))
        self.complete[winners] = True
        self.complete_score[winners] = best[winners]
        self.complete_path[winners] = self.tokens[winners * width + first[winners], self.start :]
        self.complete_length[winners] = self.lengths[winners]

    def advance(self, live: np.ndarray, items: np.ndarray, values: np.ndarray, depth: int) -> int:
        """Replace every running beam by the best children of its live slots.

        ``items`` / ``values`` are the ``(rows, k)`` top-``k`` of the
        ``live`` slots' rows, a non-finite value marking no child.  An
        instance without a child keeps its beam and stops running.  Returns
        how many instances advanced.
        """
        count, width = len(self.goals), self.width
        k = items.shape[1]
        log_probability = self.log_probability[live, None] + values
        reached = items == self.goals[live // width, None]
        scores = _hypothesis_scores(log_probability, depth + 1, reached, self.objective_bonus)
        # One (instances, width · k) child block in (parent order, child
        # rank) order, sorted by score descending and stable; NaN — no
        # child — sorts last.
        key = np.full((count * width, k), np.nan)
        key[live] = np.where(np.isfinite(values), -scores, np.nan)
        order = np.argsort(key.reshape(count, width * k), axis=1, kind="stable")[:, :width]
        child = np.arange(count)[:, None] * (width * k) + order  # flat (slot, rank) index
        chosen = ~np.isnan(key.ravel()[child])
        advanced = chosen[:, 0]
        slots = np.flatnonzero(np.repeat(advanced, width))
        parent, rank = np.divmod(child.ravel()[slots], k)
        row_of_slot = np.zeros(count * width, dtype=np.int64)
        row_of_slot[live] = np.arange(live.size)
        row = row_of_slot[parent]
        self.tokens[slots] = self.tokens[parent]
        self.tokens[slots, self.start + depth] = items[row, rank]
        self.log_probability[slots] = log_probability[row, rank]
        self.reached[slots] = reached[row, rank]
        self.occupied[slots] = chosen.ravel()[slots]
        self.parent_row[slots] = row
        self.running = advanced
        self.lengths[advanced] = depth + 1
        return int(advanced.sum())

    def paths(self) -> "list[list[int]]":
        """Every instance's plan: its first maximal complete hypothesis,
        else the first maximal hypothesis of its final beam."""
        count, width = len(self.goals), self.width
        # the beams still running at the last depth were never retired
        self._retire(self.occupied & self.reached & np.repeat(self.running, width))
        lengths = np.repeat(self.lengths, width)
        scores = _hypothesis_scores(
            self.log_probability, lengths, self.reached, self.objective_bonus
        )
        _, first, _ = _first_maximum(
            self.occupied.reshape(count, width), scores.reshape(count, width)
        )
        final = self.tokens[np.arange(count) * width + first, self.start :]
        rows = np.where(self.complete[:, None], self.complete_path, final)
        lengths = np.where(self.complete, self.complete_length, self.lengths)
        return [row[:length] for row, length in zip(rows.tolist(), lengths.tolist())]


@influential_registry.register("beam")
class BeamSearchPlanner(InfluentialRecommender):
    """Plan influence paths with beam search over objective decoding sessions.

    Parameters
    ----------
    backbone:
        A fitted (or fit-able) recommender with objective-conditioned
        decoding sessions (``begin_decoding_session`` /
        ``advance_decoding_session``) — in practice an
        :class:`~repro.core.irn.IRN`.  Any other backbone is refused.
    beam_width:
        Number of hypotheses kept per step.
    branch_factor:
        Number of next-item candidates expanded from each hypothesis.
    objective_bonus:
        Additive bonus (in average-log-prob units) for hypotheses that reach
        the objective; larger values prefer *reaching* over smoothness.
    fit_backbone:
        Whether :meth:`fit` should also fit the backbone.
    max_length:
        Default path-length budget shared by :meth:`plan_path`,
        :meth:`plan_paths_batch` and (as the replanning horizon)
        :meth:`next_step` — previously a hardcoded ``20`` inside
        ``next_step``.
    plan_cache_size:
        Bound of the finished-plan LRU consulted by :meth:`plan_paths_batch`
        before replanning (0 disables memoisation).
    step_cache_size:
        Bound of the per-context serving-plan LRU behind :meth:`next_step`.
        Size 1 reproduces the pre-cache behaviour (a single replan slot that
        interleaved contexts thrash); must be at least 1.
    candidate_generator:
        Optional fitted (or fit-able) two-stage-retrieval generator
        (:class:`~repro.retrieval.base.CandidateGenerator`), asked once per
        plan for every pending instance's shortlist (``candidates_batch``).
        When set, each planned instance scores only over its own
        per-context candidate shortlist, and the plan never leaves
        *shortlist space*: the plan's decoding session keeps the
        ``(instances, K)`` table of the shortlists (``K`` the largest
        shortlist planned together) and its gathered output-projection
        rows, every depth returns a ``(rows, K)`` block — row ``r`` at its
        own instance's shortlist — and seen-item masking, the log-softmax
        and the top-k all run on that block; no ``(rows, vocab)`` array is
        built.  Plan / step cache keys gain the generator's
        ``retrieval_key()`` so pruned and exact plans can never alias.  A
        context the generator answers ``None`` for (fallback) plans exactly
        over the full vocabulary, in its own lockstep beam (and session)
        beside the shortlisted contexts of the same drain, and is counted
        in the ``core.retrieval`` metric scope.  A full-coverage generator
        (:class:`~repro.retrieval.base.FullVocabGenerator`) takes the exact
        path too, so its plans are bit-identical to exact planning.
    """

    name = "IRN-beam"

    def __init__(
        self,
        backbone,
        beam_width: int = 4,
        branch_factor: int = 4,
        objective_bonus: float = 1.0,
        fit_backbone: bool = False,
        max_length: int = 20,
        plan_cache_size: int = 256,
        step_cache_size: int = 64,
        candidate_generator=None,
    ) -> None:
        super().__init__()
        if not (
            hasattr(backbone, "begin_decoding_session")
            and hasattr(backbone, "advance_decoding_session")
        ):
            raise ConfigurationError(
                "BeamSearchPlanner needs a backbone with objective decoding sessions "
                "(begin_decoding_session / advance_decoding_session)"
            )
        if beam_width <= 0 or branch_factor <= 0:
            raise ConfigurationError("beam_width and branch_factor must be positive")
        if objective_bonus < 0:
            raise ConfigurationError("objective_bonus must be non-negative")
        if max_length <= 0:
            raise ConfigurationError(f"max_length must be positive, got {max_length}")
        if step_cache_size < 1:
            raise ConfigurationError("step_cache_size must be at least 1")
        if candidate_generator is not None and not hasattr(
            candidate_generator, "candidates_batch"
        ):
            raise ConfigurationError(
                "candidate_generator must expose candidates_batch(histories, "
                "objectives, user_indices) — see repro.retrieval.base.CandidateGenerator"
            )
        self.backbone = backbone
        self.beam_width = beam_width
        self.branch_factor = branch_factor
        self.objective_bonus = objective_bonus
        self.fit_backbone = fit_backbone
        self.max_length = max_length
        self.candidate_generator = candidate_generator
        self.plan_cache = PlanCache(plan_cache_size)
        self._step_cache = PlanCache(step_cache_size)
        # Serving-cache outcome counters: registry-backed, so a serving hit
        # and its sibling replan can never be observed torn, and the counts
        # surface in ``repro-irs metrics`` next to the plan-cache counters.
        registry = get_registry()
        self._serving_metrics = MetricGroup(
            registry, registry.scope("core.serving"), counters=("hits", "replans")
        )
        #: counted by the step cache's probe, in the update that counts the
        #: cache's own hit (:meth:`serve_resident`)
        self._serving_hits = self._serving_metrics.counter("hits")
        # Retrieval counters (requests / full-vocab fallbacks / total
        # candidate items) surface in ``repro-irs metrics`` and ``cache_info``.
        self._retrieval_metrics = (
            MetricGroup(
                registry,
                registry.scope("core.retrieval"),
                counters=("requests", "fallbacks", "candidate_items"),
            )
            if candidate_generator is not None
            else None
        )
        self._backbone_generation = getattr(backbone, "fit_generation", None)
        # Replicated-serving state: a pinned planner must never observe its
        # backbone retrained in place (the refit protocol swaps whole
        # replicas), and serving_generation is the externally visible tag the
        # serving loop stamps on every answered micro-batch.
        self._pinned_generation: "int | None" = None
        self.serving_generation: "int | None" = None
        backbone_name = getattr(backbone, "name", type(backbone).__name__)
        self.name = f"{backbone_name}-beam"

    # ------------------------------------------------------------------ #
    def fit(self, split: DatasetSplit) -> "BeamSearchPlanner":
        self.corpus = split.corpus
        if self.fit_backbone:
            self.backbone.fit(split)  # type: ignore[attr-defined]
        backbone_corpus = getattr(self.backbone, "corpus", None)
        if backbone_corpus is None:
            raise ConfigurationError("the beam-search backbone must be fitted")
        generator = self.candidate_generator
        if generator is not None and not getattr(generator, "is_fitted", True):
            generator.fit(split.corpus)
        # (Re)fitting invalidates every memoised plan unconditionally.
        self.invalidate_caches()
        return self

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def invalidate_caches(self) -> None:
        """Drop all memoised plans (called on fit and on backbone retrain)."""
        self.plan_cache.clear()
        self._step_cache.clear()
        self._backbone_generation = getattr(self.backbone, "fit_generation", None)

    def pin_generation(self, serving_generation: "int | None" = None) -> "int | None":
        """Freeze this planner to the backbone's current ``fit_generation``.

        The hot-refit contract (:meth:`ServingLoop.refit
        <repro.serve.loop.ServingLoop.refit>`, the process fleet's
        ``refit``): a serving backbone is immutable — a refit trains a
        *fresh* planner off-path and flips to it, it never retrains a
        serving backbone in place.
        After pinning, any observed ``fit_generation`` change raises
        :class:`~repro.utils.exceptions.StaleGenerationError` instead of
        silently invalidating caches, so a protocol violation surfaces at the
        first request rather than as mixed-generation answers.

        ``serving_generation`` is the externally visible generation tag
        (the serving loop's or fleet's monotonic generation — backbone
        ``fit_generation`` counters restart at 1 for every freshly trained
        model, so they cannot distinguish generations across refits); it defaults to the
        pinned backbone generation.  Returns the pinned backbone generation
        (``None`` when the backbone exposes no ``fit_generation``, in which
        case only the tag is set and no enforcement happens).
        """
        generation = getattr(self.backbone, "fit_generation", None)
        self._pinned_generation = generation
        if serving_generation is None:
            self.serving_generation = generation
        else:
            self.serving_generation = int(serving_generation)
        return generation

    def _sync_backbone_generation(self) -> None:
        """Invalidate memoised plans if the backbone was retrained under us.

        A generation-pinned planner (see :meth:`pin_generation`) raises
        instead: its backbone must never change while the planner serves.
        """
        try:  # the resident lane runs this per step: no getattr call
            generation = self.backbone.fit_generation
        except AttributeError:
            generation = None
        if self._pinned_generation is not None and generation != self._pinned_generation:
            logger.warning(
                "generation guard tripped: planner pinned to backbone "
                "fit_generation %s observed %s",
                self._pinned_generation,
                generation,
            )
            raise StaleGenerationError(
                f"planner is pinned to backbone fit_generation "
                f"{self._pinned_generation} but observed {generation}; replicated "
                f"serving swaps whole replicas on refit instead of retraining a "
                f"serving backbone in place"
            )
        if generation != self._backbone_generation:
            self.invalidate_caches()

    def cache_info(self) -> dict:
        """Hit/miss/eviction counters of both plan caches."""
        counts = self._serving_metrics.values()
        serving = {
            "served_from_plan": counts["hits"],
            "replans": counts["replans"],
        }
        info = {
            "plan_cache": self.plan_cache.cache_info(),
            "step_cache": self._step_cache.cache_info(),
            "serving": serving,
        }
        if self._retrieval_metrics is not None:
            retrieval = self._retrieval_metrics.values()
            info["retrieval"] = {
                "generator": getattr(
                    self.candidate_generator, "name", type(self.candidate_generator).__name__
                ),
                "requests": retrieval["requests"],
                "fallbacks": retrieval["fallbacks"],
                "candidate_items": retrieval["candidate_items"],
            }
        return info

    def _retrieval_key(self) -> "tuple | None":
        """Cache-key component isolating pruned plans from exact ones.

        ``None`` for exact planning; otherwise the generator's config +
        fit-generation tuple, so plans pruned under a refitted (or
        differently configured) generator never alias either.
        """
        generator = self.candidate_generator
        if generator is None:
            return None
        key = getattr(generator, "retrieval_key", None)
        if key is not None:
            return key()
        return (type(generator).__name__,)

    # ------------------------------------------------------------------ #
    def _expand(
        self,
        scores: np.ndarray,
        seen: np.ndarray,
        goals: np.ndarray,
        row_items: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Each scored row's top-``k`` children: ``(items, log-probabilities)``.

        ``scores`` is the rows' fresh float64 backbone block, masked and
        normalised in place: every item of ``seen`` (the ``(rows, T)``
        history ⊕ path block) and the padding item are masked, the row's
        objective never.  Both results are ``(rows, k)`` in (value desc,
        item asc) order — the stable-``argsort`` order — and a non-finite
        log-probability marks a cell that is no child.

        Under candidate pruning the expansion runs in *shortlist space*:
        ``row_items`` is the ``(rows, C)`` table of each row's own
        shortlist in ascending item order — a shorter shortlist padded by
        repeating its last item — and scores, masking, the log-softmax
        (probabilities renormalise over the row's shortlist, the documented
        approximation) and the top-k all work on ``(rows, C)`` blocks;
        winners map back to items through the table.  Ascending columns
        keep the (value desc, item asc) tie order of the full-vocabulary
        path, which is the same code with no table.
        """
        if row_items is not None:
            # a cell repeating its left neighbour is padding, not a candidate
            scores[:, 1:][row_items[:, 1:] == row_items[:, :-1]] = -np.inf
        mask_session_items(scores, seen, goals, row_items=row_items)
        log_probs = log_softmax_rows(scores)
        top, values = sharded_topk(log_probs, min(self.branch_factor, log_probs.shape[1]))
        if row_items is not None:
            top = np.take_along_axis(row_items, top, axis=1)
        return top, values

    def plan_paths_batch(
        self,
        histories: Sequence[Sequence[int]],
        objectives: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
        max_length: int | None = None,
    ) -> list[list[int]]:
        """Plan influence paths for many instances with lockstep beam search.

        Each instance runs the exact same beam algorithm as before, but every
        depth issues a single fused scoring call covering all live hypotheses
        of ALL still-running instances, so one transformer forward replaces
        up to ``beam_width * num_instances`` scalar forwards.

        Instances whose ``(tuple(history), objective, user_index,
        max_length)`` key is memoised in :attr:`plan_cache` are served
        without any planning; the rest are planned together.  A backbone
        whose ``fit_generation`` changes while they plan raises
        :class:`~repro.utils.exceptions.StaleGenerationError` and memoises
        nothing.  ``max_length`` defaults to the constructor-level
        :attr:`max_length`.
        """
        max_length = self.max_length if max_length is None else max_length
        if max_length <= 0:
            raise ConfigurationError(f"max_length must be positive, got {max_length}")
        self._require_fitted()
        self._sync_backbone_generation()
        count = len(histories)
        histories = [list(history) for history in histories]
        objectives = [int(objective) for objective in objectives]
        check_batch_lengths(count, objectives=objectives)
        users = broadcast_user_indices(count, user_indices)

        paths: list[list[int] | None] = [None] * count
        pending: list[int] = []
        retrieval = self._retrieval_key()
        keys = [
            (tuple(histories[i]), objectives[i], users[i], max_length, retrieval)
            for i in range(count)
        ]
        for i in range(count):
            cached = self.plan_cache.get(keys[i])
            if cached is not None:
                paths[i] = list(cached)
            else:
                pending.append(i)
        if pending:
            # The torn-batch check: a backbone retrained while this call
            # planned would hand back answers computed under two sets of
            # weights, so the generation is read before and after.
            expected = getattr(self.backbone, "fit_generation", None)
            planned = self._plan_beam(histories, objectives, users, pending, max_length)
            observed = getattr(self.backbone, "fit_generation", None)
            if observed != expected:
                logger.warning(
                    "generation guard tripped mid-plan: %r -> %r across %d instance(s)",
                    expected,
                    observed,
                    len(pending),
                )
                raise StaleGenerationError(
                    f"generation changed from {expected!r} to {observed!r} while "
                    f"{len(pending)} instance(s) planned; the batch would mix "
                    f"generations, so no result is returned"
                )
            for i, path in zip(pending, planned):
                self.plan_cache.put(keys[i], tuple(path))
                paths[i] = path
        return paths  # type: ignore[return-value]

    def _plan_beam(
        self,
        histories: list[list[int]],
        objectives: list[int],
        users: "list[int | None]",
        pending: list[int],
        max_length: int,
    ) -> list[list[int]]:
        """Plan the ``pending`` instance subset: one lockstep beam per scoring space.

        Instances with a shortlist run together in shortlist space; the
        rest (no generator, a ``None`` fallback, a shortlist covering the
        vocabulary) run together on the exact full-vocabulary path, so a
        cold context never drags the shortlisted ones to ``(rows, vocab)``.
        """
        shortlists = self._shortlists(histories, objectives, users, pending)
        exact = [i for i in pending if i not in shortlists]
        paths = dict(
            zip(exact, self._lockstep_beam(histories, objectives, users, exact, max_length))
        )
        pruned = [i for i in pending if i in shortlists]
        if pruned:
            # One (instances, K) item table per plan, K the group's largest
            # shortlist: ascending rows, a shorter one padded by repeating
            # its last item (which _expand reads as padding).
            width = max(shortlists[i].size for i in pruned)
            table = np.empty((len(pruned), width), dtype=np.int64)
            for slot, i in enumerate(pruned):
                shortlist = shortlists[i]
                table[slot, : shortlist.size] = shortlist
                table[slot, shortlist.size :] = shortlist[-1]
            planned = self._lockstep_beam(
                histories, objectives, users, pruned, max_length, table
            )
            paths.update(zip(pruned, planned))
        return [paths[i] for i in pending]

    def _shortlists(
        self,
        histories: list[list[int]],
        objectives: list[int],
        users: "list[int | None]",
        pending: list[int],
    ) -> "dict[int, np.ndarray]":
        """The candidate shortlist of every instance that plans in shortlist space.

        One set per instance, computed once per plan from the initial
        context (the set is a property of the *planning context*, not of
        the partial path — keys must match the plan cache's) by one
        ``candidates_batch`` call over every pending instance, sorted and
        unique by the generator's contract.  Instances left out plan
        exactly: the generator answered ``None``, or its set covers every
        real item (the
        :class:`~repro.retrieval.base.FullVocabGenerator` case, which is
        what keeps ``full_vocab_parity`` bit-identical by construction).
        Retrieval counters are recorded here, once per plan.
        """
        shortlists: "dict[int, np.ndarray]" = {}
        generator = self.candidate_generator
        if generator is None:
            return shortlists
        vocab = self.corpus.vocab.size
        fallbacks = 0
        candidate_total = 0
        candidate_sets = generator.candidates_batch(
            [histories[i] for i in pending],
            [objectives[i] for i in pending],
            [users[i] for i in pending],
        )
        for i, candidates in zip(pending, candidate_sets):
            if candidates is None:
                fallbacks += 1
                continue
            candidate_total += int(candidates.size)
            if candidates.size < vocab - 1:
                shortlists[i] = candidates
        if self._retrieval_metrics is not None:
            self._retrieval_metrics.record(
                add={
                    "requests": len(pending),
                    "fallbacks": fallbacks,
                    "candidate_items": candidate_total,
                }
            )
        return shortlists

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
        the whole search in shortlist space (see :meth:`_expand`); without
        it every row scores the full vocabulary.
        """
        histories = [histories[i] for i in pending]
        goals = np.asarray([objectives[i] for i in pending], dtype=np.int64)
        users = [users[i] for i in pending]
        beams = _Beams(histories, goals, self.beam_width, max_length, self.objective_bonus)
        session = None
        # Per-depth expansion spans broadcast to every trace of the drained
        # micro-batch (depth work is fused across the whole batch, so
        # batch-level attribution is the honest granularity); None when the
        # batch is untraced.
        sink = current_sink()

        for depth in range(max_length):
            if not beams.running.any():
                break
            depth_started = time.perf_counter() if sink is not None else 0.0
            live = beams.live()
            if not live.size:
                break
            owners = live // self.beam_width
            if session is None:
                # Depth 0: the live rows are the roots, one per instance;
                # the session keeps their shortlists (when pruned) throughout.
                scores, session = self.backbone.begin_decoding_session(
                    histories, goals.tolist(), users, candidate_items=table
                )
            else:
                # Later depths: gather each survivor's session row and append
                # its newest item.
                scores = self.backbone.advance_decoding_session(
                    session,
                    beams.tokens[live, beams.start + depth - 1],
                    beams.parent_row[live],
                )
            items, values = self._expand(
                np.asarray(scores, dtype=np.float64),
                beams.tokens[live, : beams.start + depth],
                goals[owners],
                None if table is None else table[owners],
            )
            advanced = beams.advance(live, items, values, depth)
            if sink is not None:
                sink.batch_span(
                    "beam.depth",
                    depth_started,
                    time.perf_counter(),
                    depth=depth,
                    rows=int(live.size),
                    instances=advanced,
                )
        return beams.paths()

    def plan_path(
        self,
        history: Sequence[int],
        objective: int,
        user_index: int | None = None,
        max_length: int | None = None,
    ) -> list[int]:
        """Plan a full influence path with beam search (batch-of-one)."""
        # repro.serve imports this module (MISS), so the envelope is
        # imported where it is built.
        from repro.serve.request import ServeRequest

        request = ServeRequest.create(
            "plan_paths", history, objective, user_index=user_index, max_length=max_length
        )
        return self.plan_for_requests([request])[0]

    # ------------------------------------------------------------------ #
    # Serving micro-batches
    # ------------------------------------------------------------------ #
    def _step_key(self, request: "ServeRequest", retrieval) -> tuple:
        """The serving-cache key of ``request``'s context: the context, the
        serving horizon and the retrieval identity (:meth:`_retrieval_key`)."""
        return (request.history, request.objective, request.user_index, self.max_length, retrieval)

    def plan_for_requests(self, requests: "Sequence[ServeRequest]") -> list:
        """Answer a heterogeneous micro-batch of serving requests.

        ``requests`` holds :class:`~repro.serve.request.ServeRequest`
        envelopes, read exactly as :meth:`ServeRequest.create
        <repro.serve.request.ServeRequest.create>` validated and normalised
        them (tuples of ``int``, a checked horizon, no horizon on a
        ``next_step``).  A ``next_step`` is answered with the next planned
        item or ``None``, exactly like :meth:`next_step`; a ``plan_paths``
        with a full planned path, exactly like :meth:`plan_path` (its
        ``max_length`` overrides the planning horizon).  Any other kind is
        refused before any work.  This is the entry point the serving loop
        (:mod:`repro.serve`) drains its queue through; :meth:`next_step`
        and :meth:`plan_path` are batch-of-one calls into it.

        All replanning work in the batch is *fused*: every ``plan_paths``
        request and every ``next_step`` serving-cache miss that shares a
        horizon joins one :meth:`plan_paths_batch` call, so the lockstep
        beam's one-forward-per-depth token-work win applies to
        asynchronously arriving traffic, not just pre-assembled batches.

        Results are identical to issuing the requests sequentially in the
        given order.  Requests that share a serving context within one batch
        are processed in arrival-ordered waves (a later duplicate sees the
        cache effects of the earlier request, never a half-applied state).
        """
        if not requests:
            return []
        for request in requests:
            if request.kind not in ("next_step", "plan_paths"):
                raise ConfigurationError(
                    f"request kind must be 'next_step' or 'plan_paths', got {request.kind!r}"
                )
        self._require_fitted()
        self._sync_backbone_generation()
        # The drain thread's batch sink (None unless this micro-batch is
        # traced): indices into `requests` and into the sink's trace list
        # coincide, so per-request cache decisions attach to the right trace.
        sink = current_sink()
        # Step-cache keys carry the retrieval identity so pruned plans never
        # alias exact ones (or plans from a differently-configured/refit
        # generator); constant per call, computed once.
        retrieval = self._retrieval_key()
        results: list = [None] * len(requests)
        remaining = list(range(len(requests)))
        while remaining:
            # Arrival-ordered wave: at most one request per serving context.
            # A duplicate context defers to the next wave so it observes the
            # serving-cache entry its predecessor wrote — the sequential
            # semantics, batched.
            wave: list[int] = []
            deferred: list[int] = []
            seen_keys: set = set()
            for index in remaining:
                request = requests[index]
                if request.kind == "next_step":
                    key = (request.history, request.objective, request.user_index)
                    if key in seen_keys:
                        deferred.append(index)
                        continue
                    seen_keys.add(key)
                wave.append(index)
            # Pass 1: consult the serving cache in request order; collect
            # the requests that need planning work.  With a traced drain
            # above (sink installed), each consult records a per-request
            # cache.decision span with its hit/replan outcome.
            misses: list[int] = []
            for index in wave:
                request = requests[index]
                if request.kind == "plan_paths":
                    misses.append(index)
                    continue
                path_so_far = request.path_so_far
                key = self._step_key(request, retrieval)
                consult_start = time.perf_counter() if sink is not None else 0.0
                plan = self._step_cache.get(key)
                if plan is not None and plan[: len(path_so_far)] == path_so_far:
                    self._serving_metrics.record(add={"hits": 1})
                    if sink is not None:
                        sink.request_span(
                            index,
                            "cache.decision",
                            consult_start,
                            time.perf_counter(),
                            outcome="hit",
                        )
                    results[index] = (
                        int(plan[len(path_so_far)]) if len(plan) > len(path_so_far) else None
                    )
                else:
                    self._serving_metrics.record(add={"replans": 1})
                    if sink is not None:
                        sink.request_span(
                            index,
                            "cache.decision",
                            consult_start,
                            time.perf_counter(),
                            outcome="replan",
                        )
                    misses.append(index)
            # Pass 2: one fused plan_paths_batch per distinct effective
            # horizon (lockstep traffic shares one, so typically one call).
            groups: dict[int, list[int]] = {}
            for index in misses:
                request = requests[index]
                if request.kind == "next_step":
                    effective = max(self.max_length - len(request.path_so_far), 1)
                else:  # create() admits only a positive horizon, or None
                    effective = request.max_length or self.max_length
                groups.setdefault(effective, []).append(index)
            for effective, indices in groups.items():
                planned = self.plan_paths_batch(
                    [requests[i].history + requests[i].path_so_far for i in indices],
                    [requests[i].objective for i in indices],
                    [requests[i].user_index for i in indices],
                    max_length=effective,
                )
                for index, path in zip(indices, planned):
                    request = requests[index]
                    if request.kind == "plan_paths":
                        results[index] = list(path)
                        continue
                    path_so_far = request.path_so_far
                    key = self._step_key(request, retrieval)
                    plan = path_so_far + tuple(path)
                    self._step_cache.put(key, plan)
                    results[index] = (
                        int(plan[len(path_so_far)]) if len(plan) > len(path_so_far) else None
                    )
            remaining = deferred
        return results

    def serve_resident(self, request: "ServeRequest"):
        """The ``next_step`` answer a resident plan gives ``request``, or
        :data:`MISS`.

        The serving loop's admission path: when the context's serving-cache
        entry exists and ``path_so_far`` is a prefix of it, the answer is
        what :meth:`plan_for_requests` would return for the same request —
        the next planned item, or ``None`` past the plan's end — found
        without planning, batching or a thread hand-over.  Anything else
        (no entry, a diverged path) returns :data:`MISS` and leaves every
        counter alone: the request then goes through
        :meth:`plan_for_requests`, which looks the entry up again and counts
        that one lookup, so a request is one serving-cache lookup on either
        path.  The generation guard runs first, as it does there (the
        fitted check only on a miss: an unfitted planner holds no plan).  The
        lookup is one pass: the probe checks the prefix itself and counts
        the step cache's hit and this planner's serving hit in one registry
        update.
        """
        self._sync_backbone_generation()
        generator = self.candidate_generator
        rest = self._step_cache.probe(
            self._step_key(request, None if generator is None else self._retrieval_key()),
            request.path_so_far,
            self._serving_hits,
        )
        if rest is None:
            self._require_fitted()  # an unfitted planner holds no plan: only a miss asks
            return MISS
        return int(rest[0]) if rest else None

    def resident_plan(self, request: "ServeRequest") -> "tuple[int, ...] | None":
        """The serving-cache plan of ``request``'s context, or ``None`` — an
        observer's peek: no counter moves and the entry's recency stays
        where it was.  The process transport reads it right after answering
        a ``next_step`` to mirror the plan on the fleet's parent."""
        return self._step_cache.peek(self._step_key(request, self._retrieval_key()))

    @property
    def resident_slots(self) -> int:
        """How many contexts' plans :meth:`resident_plan` can hold at once."""
        return self._step_cache.maxsize

    # ------------------------------------------------------------------ #
    # InfluentialRecommender interface
    # ------------------------------------------------------------------ #
    def generate_path(
        self,
        history: Sequence[int],
        objective: int,
        user_index: int | None = None,
        max_length: int | None = None,
    ) -> list[int]:
        return self.plan_path(history, objective, user_index=user_index, max_length=max_length)

    def generate_paths_batch(
        self,
        histories: Sequence[Sequence[int]],
        objectives: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
        max_length: int | None = None,
    ) -> list[list[int]]:
        return self.plan_paths_batch(
            histories, objectives, user_indices=user_indices, max_length=max_length
        )

    def next_step(
        self,
        history: Sequence[int],
        objective: int,
        path_so_far: Sequence[int],
        user_index: int | None = None,
    ) -> int | None:
        """Serve the next item of the current plan, replanning on divergence.

        The per-context serving plans live in a bounded LRU keyed by
        ``(tuple(history), objective, user_index, max_length)``, so many
        interleaved serving contexts (lockstep stepwise evaluation, multiple
        concurrent users) each keep their own evolving plan instead of
        thrashing a single replan slot.  A replan from a diverged context
        goes through :meth:`plan_paths_batch` and therefore also consults
        the finished-plan cache.  The replanning horizon is the
        constructor-level :attr:`max_length` (previously a hardcoded 20).
        Implemented as a batch-of-one :meth:`plan_for_requests` call — the
        serving loop's micro-batched drains answer many of these with one
        fused planning pass, identically.
        """
        from repro.serve.request import ServeRequest

        return self.plan_for_requests(
            [ServeRequest.create("next_step", history, objective, path_so_far, user_index)]
        )[0]
