"""The tenant registry: served models and batch grouping.

A :class:`TenantRegistry` binds tenant ids to served models
(:class:`TenantBinding` = adapter + per-tenant latency metrics).  A
:class:`~repro.serve.loop.ServingLoop` constructed with a registry becomes
a multi-tenant surface:

* **batch grouping** — a drained micro-batch may mix tenants; the
  registry splits it per tenant, reads each tenant's model generation
  ONCE before planning (the torn-batch discipline, now per tenant), and
  scopes a tenant's planning failure to that tenant's futures only;
* **routing** — untenanted requests entering a tenanted loop are assigned
  deterministically by context-key hash, so the REPRO_TENANTS tier-1 leg
  exercises grouping on unmodified workloads.

:meth:`TenantRegistry.uniform` builds the degenerate registry (every
tenant shares one planner) that leg uses; real multi-tenant setups declare
one model per tenant via :meth:`add`.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.registry import MetricGroup, get_registry
from repro.shard.partition import stable_hash
from repro.tenant.adapters import KindAdapter, adapt
from repro.utils.exceptions import ConfigurationError, ServingError

__all__ = ["TenantBinding", "TenantRegistry", "assign_tenant"]

_LATENCY_COUNTERS = ("served", "failed", "wait_sum_s", "latency_sum_s")
_LATENCY_GAUGES = ("wait_max_s", "latency_max_s")


def assign_tenant(names: "Sequence[str]", routing_key) -> str:
    """The tenant an untenanted request of ``routing_key`` is served under
    among ``names`` (registration order): a stable hash of the context key,
    identical across interpreters, reruns and processes — a worker fleet's
    parent computes the same assignment its workers make."""
    return names[stable_hash(routing_key) % len(names)]


class TenantBinding:
    """One tenant: its adapter and latency accounting."""

    def __init__(self, name: str, adapter: KindAdapter) -> None:
        self.name = name
        self.adapter = adapter
        registry = get_registry()
        #: registry namespace of this tenant's counters (auto-indexed, so
        #: replicated loops wrapping per-replica registries never collide)
        self.metrics_scope = registry.scope(f"serve.tenant.{name}")
        self._latency = MetricGroup(
            registry,
            f"{self.metrics_scope}.latency",
            counters=_LATENCY_COUNTERS,
            gauges=_LATENCY_GAUGES,
        )
        #: the instruments of :meth:`latency_terms`, in their field order
        self._sums = tuple(self._latency.counter(name) for name in _LATENCY_COUNTERS)
        self._maxima = tuple(self._latency.gauge(name) for name in _LATENCY_GAUGES)

    def latency_terms(
        self,
        served: int,
        failed: int,
        wait_sum: float,
        wait_max: float,
        latency_sum: float,
        latency_max: float,
    ) -> "tuple[tuple, tuple]":
        """The ``(add, max_)`` terms of one :meth:`observe`, for a caller
        folding them into a :meth:`~repro.obs.registry.MetricsRegistry.update`
        of its own (the serving loop's resident answer)."""
        return (
            tuple(zip(self._sums, (served, failed, wait_sum, latency_sum))),
            tuple(zip(self._maxima, (wait_max, latency_max))),
        )

    def observe(
        self,
        served: int,
        failed: int,
        wait_sum: float,
        wait_max: float,
        latency_sum: float,
        latency_max: float,
    ) -> None:
        """Fold one drained batch's per-tenant latency into the registry."""
        self._latency.registry.update(
            *self.latency_terms(served, failed, wait_sum, wait_max, latency_sum, latency_max)
        )

    def stats(self) -> dict:
        """This tenant's served/latency counters (atomic read)."""
        values = self._latency.values()
        served = values.get("served", 0)
        return {
            "tenant": self.name,
            "kinds": list(self.adapter.kinds),
            "served": served,
            "failed": values.get("failed", 0),
            "latency": {
                "mean_ms": (
                    round(1000.0 * values.get("latency_sum_s", 0.0) / served, 3)
                    if served
                    else 0.0
                ),
                "max_ms": round(1000.0 * values.get("latency_max_s", 0.0), 3),
            },
        }


class TenantRegistry:
    """Tenant id -> :class:`TenantBinding`, plus batch grouping."""

    def __init__(self) -> None:
        self._bindings: "dict[str, TenantBinding]" = {}
        self._order: "list[str]" = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add(self, name: str, model) -> TenantBinding:
        """Bind ``name`` to ``model`` (adapted via
        :func:`~repro.tenant.adapters.adapt`)."""
        if not isinstance(name, str) or not name:
            raise ConfigurationError(f"tenant name must be a non-empty string, got {name!r}")
        if name in self._bindings:
            raise ConfigurationError(f"tenant {name!r} is already registered")
        binding = TenantBinding(name, adapt(model))
        self._bindings[name] = binding
        self._order.append(name)
        return binding

    @classmethod
    def uniform(cls, planner, count: int, prefix: str = "tenant") -> "TenantRegistry":
        """``count`` tenants sharing one planner — the synthesized registry
        of the ``REPRO_TENANTS`` tier-1 leg."""
        if not isinstance(count, int) or count < 1:
            raise ConfigurationError(f"tenant count must be a positive integer, got {count!r}")
        registry = cls()
        for index in range(count):
            registry.add(f"{prefix}-{index}", planner)
        return registry

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> "tuple[str, ...]":
        return tuple(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: object) -> bool:
        return name in self._bindings

    def get(self, name: "str | None") -> TenantBinding:
        if name not in self._bindings:
            raise ServingError(
                f"unknown tenant {name!r}; registered tenants: "
                f"{', '.join(self._order) or '(none)'}"
            )
        return self._bindings[name]

    def bindings(self) -> "tuple[TenantBinding, ...]":
        return tuple(self._bindings[name] for name in self._order)

    def pin_generation(self, generation: int) -> None:
        """Stamp every versionable tenant model with the serving generation.

        Serving hosts (a refitting loop and forked workers) call this with
        the generation they serve at, so each tenant's answers carry the
        same ``served_generation`` tag the refit protocol bumps.  Models
        without a ``pin_generation`` hook (stateless graphs, recommenders
        reporting their own ``fit_generation``) are left alone.
        """
        for binding in self.bindings():
            pin = getattr(binding.adapter.model(), "pin_generation", None)
            if callable(pin):
                pin(serving_generation=generation)

    def assign(self, routing_key) -> str:
        """Deterministic tenant for an untenanted request
        (:func:`assign_tenant` over the registered names)."""
        return assign_tenant(self._order, routing_key)

    def resolve(self, request) -> TenantBinding:
        """Binding for one envelope, assigning a tenant if it has none."""
        if request.tenant is None:
            request.tenant = self.assign(request.routing_key())
        return self.get(request.tenant)

    # ------------------------------------------------------------------ #
    # Batch grouping
    # ------------------------------------------------------------------ #
    def plan_batch(self, batch) -> "tuple[list, dict, dict]":
        """Answer one mixed-tenant micro-batch.

        Splits the batch per tenant (preserving submission order within
        each group) and answers each group through its adapter's
        :meth:`~repro.tenant.adapters.KindAdapter.plan_slice`: one
        generation read before planning, one trace sink, and a planning
        failure confined to the tenant's own requests.  Returns
        ``(answers, generations, failures)`` where ``answers[i]`` aligns
        with ``batch[i]``, ``generations`` maps tenant -> the generation
        stamped on its answers, and ``failures`` maps batch index -> the
        exception to deliver on that future.
        """
        groups: "dict[str, list[int]]" = {}
        for index, request in enumerate(batch):
            groups.setdefault(request.tenant, []).append(index)
        answers: "list" = [None] * len(batch)
        generations: "dict[str, int | None]" = {}
        failures: "dict[int, BaseException]" = {}
        for tenant, indices in groups.items():
            group_answers, generations[tenant], failure = self.get(tenant).adapter.plan_slice(
                [batch[index] for index in indices]
            )
            if failure is not None:
                failures.update(dict.fromkeys(indices, failure))
                continue
            for index, answer in zip(indices, group_answers):
                answers[index] = answer
        return answers, generations, failures

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Per-tenant counters, keyed by tenant id."""
        return {name: self._bindings[name].stats() for name in self._order}
