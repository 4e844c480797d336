"""Kind adapters: one positional serving protocol over the whole model zoo.

The serving loop drains micro-batches of positional 6-tuples
(``kind, history, objective, path_so_far, user_index, max_length`` — see
:meth:`repro.serve.request.ServeRequest.plan_tuple`).  A tenant may bind
any model in the repo behind that protocol:

* :class:`PlannerAdapter` — a fitted
  :class:`~repro.core.beam.BeamSearchPlanner` (or anything else with
  ``plan_for_requests``): serves ``next_step`` and ``plan_paths`` by delegating the
  whole batch to ``plan_for_requests``, so the wave-dedup and plan-cache
  machinery (and its bit-exactness contract) apply unchanged; a planner
  that can also answer a ``next_step`` from a plan it already holds
  (``serve_resident``) lets the loop do so at admission, and one that can
  show that plan (``resident_plan``) lets a worker fleet's parent do so
  without crossing the process boundary.
* :class:`RecommenderAdapter` — any
  :class:`~repro.models.base.SequentialRecommender`: serves ``rank``
  (``top_k`` with ``k`` from the objective slot and the exclusion set from
  the path slot) and ``next_step`` (objective-blind top-1 over unseen
  items — the A/B control arm).
* :class:`KGAdapter` — the knowledge-graph models (:mod:`repro.kg`):
  serves ``kg_path`` (shortest item path source→target) and, when built
  from a fitted :class:`~repro.kg.kg2inf.Kg2Inf`, ``next_step``.

:func:`adapt` sniffs a model's surface and picks the adapter, so a
:class:`~repro.tenant.registry.TenantRegistry` can be declared in terms of
plain models.

A batch is answered strictly in submission order; an unsupported kind
raises :class:`~repro.utils.exceptions.ServingError` for the *whole*
sub-batch (the registry scopes the failure to the offending tenant, so a
neighbour tenant's futures in the same drain still resolve).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.beam import MISS
from repro.utils.exceptions import ConfigurationError, ServingError

__all__ = [
    "KindAdapter",
    "PlannerAdapter",
    "RecommenderAdapter",
    "KGAdapter",
    "adapt",
]


class KindAdapter:
    """Base adapter: per-tuple dispatch with a supported-kind gate."""

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

    def serve_resident(self, history, objective, path_so_far, user_index):
        """The answer a plan this model already holds gives a ``next_step``,
        or :data:`~repro.core.beam.MISS`.  The serving loop asks at
        admission and queues only what misses; a model that keeps no
        per-context plan is never resident."""
        return MISS

    #: How many contexts' plans :meth:`resident_plan` can report at once
    #: (0: the model keeps no per-context plan).
    resident_slots = 0

    def resident_plan(self, history, objective, user_index):
        """The plan this model holds for a context right now, or ``None`` —
        read without counting a lookup or refreshing the entry.  The process
        transport mirrors it on the fleet's parent after each ``next_step``."""
        return None

    def _check_kinds(self, requests: Sequence[tuple]) -> None:
        for request in requests:
            kind = request[0]
            if kind not in self.kinds:
                raise ServingError(
                    f"{type(self).__name__} cannot serve {kind!r} requests "
                    f"(supported kinds: {', '.join(self.kinds)})"
                )

    def plan_for_requests(self, requests: Sequence[tuple]) -> list:
        """Answer one micro-batch of positional tuples, in order."""
        self._check_kinds(requests)
        return [self._answer(*request) for request in requests]

    def _answer(self, kind, history, objective, path_so_far, user_index, max_length):
        raise NotImplementedError


class PlannerAdapter(KindAdapter):
    """A beam planner behind the protocol — delegates the batch wholesale."""

    kinds = ("next_step", "plan_paths")

    def __init__(self, planner) -> None:
        if not hasattr(planner, "plan_for_requests"):
            raise ConfigurationError(
                "PlannerAdapter needs a planner with plan_for_requests() "
                "(e.g. a fitted BeamSearchPlanner)"
            )
        self.planner = planner
        # Feature-tested once, like ``supports_candidate_scoring``: test
        # doubles plan whole batches only.
        resident = getattr(planner, "serve_resident", None)
        if resident is not None:
            self.serve_resident = resident
        peek = getattr(planner, "resident_plan", None)
        if peek is not None:
            self.resident_plan = peek
            self.resident_slots = planner.resident_slots

    @property
    def serving_generation(self) -> "int | None":
        return getattr(self.planner, "serving_generation", None)

    def model(self):
        return self.planner

    def plan_for_requests(self, requests: Sequence[tuple]) -> list:
        self._check_kinds(requests)
        # Whole-batch delegation (not per-tuple dispatch): the planner's
        # wave dedup and serving cache see the same batch shape as the
        # single-tenant loop, which is what keeps tenant-mode answers
        # bit-identical to the direct call.
        return self.planner.plan_for_requests(list(requests))


class RecommenderAdapter(KindAdapter):
    """Any sequential recommender behind the protocol.

    ``rank`` is the native workload (``top_k``).  ``next_step`` recommends
    the best *unseen* item with no knowledge of the objective — the
    objective-blind control arm the A/B harness measures IRS uplift
    against.
    """

    kinds = ("rank", "next_step")

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
        if kind == "rank":
            return [
                int(item)
                for item in self.recommender.top_k(
                    list(history),
                    int(objective),
                    user_index=user_index,
                    exclude=list(path_so_far),
                )
            ]
        sequence = tuple(history) + tuple(path_so_far)
        ranked = self.recommender.top_k(
            list(sequence),
            1,
            user_index=user_index,
            exclude=[item for item in sequence if item != 0],
        )
        return int(ranked[0]) if ranked else None


class KGAdapter(KindAdapter):
    """The knowledge-graph models behind the protocol.

    Built from a fitted :class:`~repro.kg.kg2inf.Kg2Inf` it serves both
    kinds; built from a bare :class:`~repro.kg.graph.ItemKnowledgeGraph`
    it serves ``kg_path`` only.
    """

    def __init__(self, graph=None, planner=None) -> None:
        if graph is None and planner is not None:
            graph = getattr(planner, "graph", None)
        if graph is None or not hasattr(graph, "shortest_item_path"):
            raise ConfigurationError(
                "KGAdapter needs an ItemKnowledgeGraph (pass graph=..., or a "
                "fitted Kg2Inf whose .graph is built)"
            )
        self.graph = graph
        self.planner = planner
        self.kinds = ("kg_path", "next_step") if planner is not None else ("kg_path",)

    def model(self):
        return self.planner if self.planner is not None else self.graph

    def _answer(self, kind, history, objective, path_so_far, user_index, max_length):
        if kind == "kg_path":
            return [
                int(item)
                for item in self.graph.shortest_item_path(int(history[-1]), int(objective))
            ]
        step = self.planner.next_step(history, objective, path_so_far, user_index)
        return None if step is None else int(step)


def adapt(model) -> KindAdapter:
    """Wrap ``model`` in the adapter matching its surface.

    Accepts an already-built :class:`KindAdapter` unchanged; otherwise
    sniffs, in order: ``plan_for_requests`` (beam planner),
    ``shortest_item_path`` (bare knowledge graph),
    ``next_step`` + ``graph`` (Kg2Inf), ``top_k`` (sequential
    recommender).
    """
    if isinstance(model, KindAdapter):
        return model
    if hasattr(model, "plan_for_requests"):
        return PlannerAdapter(model)
    if hasattr(model, "shortest_item_path"):
        return KGAdapter(graph=model)
    if hasattr(model, "next_step") and getattr(model, "graph", None) is not None:
        return KGAdapter(planner=model)
    if hasattr(model, "top_k"):
        return RecommenderAdapter(model)
    raise ConfigurationError(
        f"cannot adapt {type(model).__name__!r} for tenant serving: expected a "
        "planner (plan_for_requests), a recommender (top_k), or a knowledge-"
        "graph model (shortest_item_path / a fitted Kg2Inf)"
    )
