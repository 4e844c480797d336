"""Admission control: the serving loop's back-pressure policy.

One :class:`AdmissionController` guards the queue of a
:class:`~repro.serve.loop.ServingLoop`.  It owns the three admission knobs
— bounded queue depth, reject-or-block policy, and the drain-deadline
micro-batching window — and the admitted/rejected/blocked/expired counters, which
live in the process-wide metrics registry (:mod:`repro.obs.registry`) so
:meth:`counters` is one atomic registry read and the serving loop's
``stats()`` can fold them into a single snapshot.

The controller decides, it does not wait: a queue at its depth bound asks
:meth:`AdmissionController.on_full` whether the producer should block until
a drain frees space (``block``) or fail fast
(:class:`~repro.utils.exceptions.QueueFullError`, ``reject``).  The actual
waiting happens on the queue's own condition variable.
"""

from __future__ import annotations

import logging
import time

from repro.config import (
    resolve_admission_policy,
    resolve_drain_deadline,
    resolve_max_queue_depth,
)
from repro.obs.registry import MetricGroup, get_registry
from repro.utils.exceptions import DeadlineExceeded, QueueFullError

__all__ = ["AdmissionController"]

#: What every admission scope counts: requests admitted, refused by a full
#: queue (``reject``), held by one (``block``), and refused past their deadline.
ADMISSION_COUNTERS = ("admitted", "rejected", "blocked", "expired")

logger = logging.getLogger(__name__)


class AdmissionController:
    """Bounded-depth admission with a reject-or-block full-queue policy."""

    def __init__(
        self,
        max_queue_depth: "int | None" = None,
        policy: "str | None" = None,
        drain_deadline: "float | None" = None,
        scope: "str | None" = None,
        metrics_scope: "str | None" = None,
    ) -> None:
        self.max_queue_depth = resolve_max_queue_depth(max_queue_depth)
        self.policy = resolve_admission_policy(policy)
        self.drain_deadline = resolve_drain_deadline(drain_deadline)
        #: Accounting label for fleets of loops (the replica set names each
        #: replica's controller ``replica-<id>``): it appears in counters(),
        #: describe() and back-pressure errors, so per-replica queue depth
        #: stays attributable after aggregation.
        self.scope = scope
        registry = get_registry()
        #: Registry namespace: the owning loop passes ``<loop>.admission`` so
        #: its whole stats tree shares one snapshot prefix; standalone
        #: controllers get an auto-indexed scope.
        self.metrics_scope = (
            metrics_scope if metrics_scope is not None else registry.scope("serve.admission")
        )
        self._metrics = MetricGroup(
            registry, self.metrics_scope, counters=ADMISSION_COUNTERS
        )
        #: The ``admitted`` counter, for a caller that counts an admission
        #: inside a registry update of its own (the serving loop's resident
        #: answer); :meth:`on_admitted` counts one on its own.
        self.admitted = self._metrics.counter("admitted")

    # ------------------------------------------------------------------ #
    def on_full(self, depth: int) -> None:
        """A producer hit the depth bound: raise under ``reject``.

        Returning (instead of raising) means "block": the caller must wait
        on its queue condition and re-check, recording the blocked request
        ONCE via :meth:`on_blocked` — re-checks after spurious wakeups or
        lost notify races must not inflate the counter.
        """
        if self.policy == "reject":
            self._metrics.record(add={"rejected": 1})
            where = f"{self.scope} " if self.scope else ""
            logger.warning(
                "admission rejected request: %squeue full (depth %d >= max %d)",
                where,
                depth,
                self.max_queue_depth,
            )
            raise QueueFullError(
                f"{where}request queue is full "
                f"(depth {depth} >= max_queue_depth {self.max_queue_depth}); "
                f"retry later or use admission_policy='block'"
            )

    def check_deadline(self, deadline: float) -> None:
        """Reject a request that arrives after its own deadline.

        THE expiry rule of both front-ends (the loop and the process
        fleet), applied at admission and again before a queued request's
        batch plans: a ``deadline`` is the last instant the caller still
        wants the answer, so a request is expired strictly *after* it.
        Expired requests raise :class:`DeadlineExceeded
        <repro.utils.exceptions.DeadlineExceeded>` (a ``QueueFullError``) and
        count as ``expired`` on this controller's scope, not as ``rejected``
        (a full queue) —
        spending a queue slot and a drain share on an answer nobody wants
        would let one late tenant's backlog crowd out live traffic.
        """
        lateness_s = time.perf_counter() - deadline
        if lateness_s > 0.0:
            self._metrics.record(add={"expired": 1})
            where = f"{self.scope}: " if self.scope else ""
            raise DeadlineExceeded(
                f"{where}request deadline expired {1000.0 * lateness_s:.1f}ms "
                "ago; not planning an answer nobody wants"
            )

    def on_blocked(self) -> None:
        """One request entered the blocked state (counted once per request)."""
        self._metrics.record(add={"blocked": 1})

    def on_admitted(self) -> None:
        self._metrics.record(add={"admitted": 1})

    # ------------------------------------------------------------------ #
    def counters(self) -> dict:
        """One atomic registry snapshot of the admission counters."""
        counters = self._metrics.values()
        if self.scope is not None:
            counters["scope"] = self.scope
        return counters

    def describe(self) -> dict:
        """The resolved knob values (for reports and stats endpoints)."""
        described = {
            "max_queue_depth": self.max_queue_depth,
            "policy": self.policy,
            "drain_deadline": self.drain_deadline,
        }
        if self.scope is not None:
            described["scope"] = self.scope
        return described
