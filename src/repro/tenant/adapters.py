"""Kind adapters: one serving request type over the served models.

The serving loop drains micro-batches of
:class:`~repro.serve.request.ServeRequest` envelopes, and every adapter
answers them as they are.  A tenant binds a planner or a sequential
recommender behind that request type:

* :class:`PlannerAdapter` — a fitted
  :class:`~repro.core.beam.BeamSearchPlanner` (or anything else with
  ``plan_for_requests``): serves ``next_step`` and ``plan_paths`` by
  delegating the whole batch to ``plan_for_requests``, so the wave-dedup
  and plan-cache machinery (and its bit-exactness contract) apply
  unchanged; a planner that can also answer a ``next_step`` from a plan it
  already holds (``serve_resident``) lets the loop do so at admission, and
  one that can show that plan (``resident_plan``) lets a worker fleet's
  parent do so without crossing the process boundary.  The one place a
  serving surface checks for ``plan_for_requests``.
* :class:`RecommenderAdapter` — any
  :class:`~repro.models.base.SequentialRecommender`: serves ``next_step``
  (objective-blind top-1 over unseen items — the A/B control arm).

:func:`adapt` sniffs a model's surface and picks the adapter, so a
:class:`~repro.tenant.registry.TenantRegistry` can be declared in terms of
plain models.

A batch is answered strictly in submission order; an unsupported kind
raises :class:`~repro.utils.exceptions.ServingError` for the *whole*
sub-batch (:meth:`KindAdapter.plan_slice` scopes the failure to that
slice, so a neighbour tenant's futures in the same drain still resolve).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.beam import MISS
from repro.obs.trace import BatchSink, use_sink
from repro.utils.exceptions import ConfigurationError, ServingError

if TYPE_CHECKING:  # pragma: no cover - import cycle: repro.serve imports repro.core
    from repro.serve.request import ServeRequest

__all__ = [
    "KindAdapter",
    "PlannerAdapter",
    "RecommenderAdapter",
    "adapt",
]


class KindAdapter:
    """Base adapter: per-request dispatch with a supported-kind gate."""

    #: the request kinds this adapter can answer
    kinds: "tuple[str, ...]" = ()

    @property
    def serving_generation(self) -> "int | None":
        """The model generation answers are computed at (``None`` when the
        underlying model does not version itself)."""
        return None

    def model(self):
        """The underlying model object (for refit plumbing and tests)."""
        raise NotImplementedError

    def serve_resident(self, request: "ServeRequest"):
        """The answer a plan this model already holds gives a ``next_step``,
        or :data:`~repro.core.beam.MISS`.  The serving loop asks at
        admission and queues only what misses; a model that keeps no
        per-context plan is never resident."""
        return MISS

    #: How many contexts' plans :meth:`resident_plan` can report at once
    #: (0: the model keeps no per-context plan).
    resident_slots = 0

    def resident_plan(self, request: "ServeRequest"):
        """The plan this model holds for ``request``'s context right now, or
        ``None`` — read without counting a lookup or refreshing the entry.
        The process transport mirrors it on the fleet's parent after each
        ``next_step``."""
        return None

    def _check_kinds(self, requests: "Sequence[ServeRequest]") -> None:
        for request in requests:
            if request.kind not in self.kinds:
                raise ServingError(
                    f"{type(self).__name__} cannot serve {request.kind!r} requests "
                    f"(supported kinds: {', '.join(self.kinds)})"
                )

    def plan_for_requests(self, requests: "Sequence[ServeRequest]") -> list:
        """Answer one micro-batch of envelopes, in order."""
        self._check_kinds(requests)
        return [
            self._answer(r.kind, r.history, r.objective, r.path_so_far, r.user_index, r.max_length)
            for r in requests
        ]

    def _answer(self, kind, history, objective, path_so_far, user_index, max_length):
        raise NotImplementedError

    def plan_slice(
        self, requests: "Sequence[ServeRequest]"
    ) -> "tuple[list | None, int | None, BaseException | None]":
        """Answer one drained slice: ``(answers, generation, failure)``.

        The generation is read ONCE, before planning: a pinned planner
        raises on any mid-batch generation change, so this read is the
        generation every answer was computed at — stamping it slice-wide is
        what makes a torn micro-batch impossible.  The trace sink covers
        exactly these requests' traces, so spans emitted below (cache
        decisions, beam depths) never land on a drain neighbour's trace.  A
        planning failure comes back as ``failure`` (``answers`` is then
        ``None``), for the caller to deliver on these futures only.
        """
        generation = self.serving_generation
        try:
            with use_sink(BatchSink([request.trace for request in requests])):
                return self.plan_for_requests(requests), generation, None
        except BaseException as exc:  # noqa: BLE001 - delivered via the futures
            return None, generation, exc


class PlannerAdapter(KindAdapter):
    """A beam planner behind the serving surface — delegates the batch wholesale."""

    kinds = ("next_step", "plan_paths")

    def __init__(self, planner) -> None:
        if not hasattr(planner, "plan_for_requests"):
            raise ConfigurationError(
                "PlannerAdapter needs a planner with plan_for_requests() "
                f"(e.g. a fitted BeamSearchPlanner), got {type(planner).__name__}"
            )
        self.planner = planner
        # Feature-tested once: test doubles plan whole batches only.
        resident = getattr(planner, "serve_resident", None)
        if resident is not None:
            self.serve_resident = resident
        peek = getattr(planner, "resident_plan", None)
        if peek is not None:
            self.resident_plan = peek
            self.resident_slots = planner.resident_slots

    @property
    def serving_generation(self) -> "int | None":
        try:  # read on every resident answer: no getattr call
            return self.planner.serving_generation
        except AttributeError:
            return None

    def model(self):
        return self.planner

    def plan_for_requests(self, requests: "Sequence[ServeRequest]") -> list:
        self._check_kinds(requests)
        # Whole-batch delegation (not per-request dispatch): the planner's
        # wave dedup and serving cache see the batch exactly as drained,
        # which is what keeps served answers bit-identical to the direct
        # call.
        return self.planner.plan_for_requests(requests)


class RecommenderAdapter(KindAdapter):
    """Any sequential recommender behind the serving surface.

    ``next_step`` recommends the best *unseen* item with no knowledge of
    the objective — the objective-blind control arm the A/B harness
    measures IRS uplift against.
    """

    kinds = ("next_step",)

    def __init__(self, recommender) -> None:
        if not hasattr(recommender, "top_k"):
            raise ConfigurationError(
                "RecommenderAdapter needs a recommender with top_k() "
                "(any repro.models SequentialRecommender)"
            )
        self.recommender = recommender

    @property
    def serving_generation(self) -> "int | None":
        generation = getattr(self.recommender, "fit_generation", None)
        return int(generation) if generation is not None else None

    def model(self):
        return self.recommender

    def _answer(self, kind, history, objective, path_so_far, user_index, max_length):
        sequence = history + path_so_far
        ranked = self.recommender.top_k(
            list(sequence),
            1,
            user_index=user_index,
            exclude=[item for item in sequence if item != 0],
        )
        return int(ranked[0]) if ranked else None


def adapt(model) -> KindAdapter:
    """Wrap ``model`` in the adapter matching its surface.

    Accepts an already-built :class:`KindAdapter` unchanged; otherwise
    sniffs, in order: ``plan_for_requests`` (beam planner), ``top_k``
    (sequential recommender).
    """
    if isinstance(model, KindAdapter):
        return model
    if hasattr(model, "plan_for_requests"):
        return PlannerAdapter(model)
    if hasattr(model, "top_k"):
        return RecommenderAdapter(model)
    raise ConfigurationError(
        f"cannot adapt {type(model).__name__!r} for tenant serving: expected a "
        "planner (plan_for_requests) or a recommender (top_k)"
    )
