"""The replica set: the one fleet core, and the in-process fleet over it.

:class:`ReplicaSet` is drop-in compatible with the
:class:`~repro.serve.loop.ServingLoop` surface (``serve`` / ``enqueue`` /
``stats`` / context manager), so every traffic driver in
:mod:`repro.serve.driver` runs against it unchanged.  It is also the ONE
owner of everything a fleet is, whatever its members are made of:
lifecycle, the generation double-buffer a refit flips, the pick → send →
undo-and-re-pick dispatch loop, the fleet admission rule and the
``stats()`` roll-up.  Member-specific work sits behind the member verbs of
:class:`~repro.replica.replica.Replica` (``start`` / ``accept`` /
``loop_stats`` / ``begin_retire`` / ``retire``) and one set-level hook,
:meth:`ReplicaSet._build_generation`;
:class:`~repro.distributed.remote.RemoteReplicaSet` overrides that hook to
put each of its ``num_replicas`` members in its own process.  Fan-out
lives only there: in one interpreter a second member contends for the
same GIL (two in-process replicas served the ``loop_fresh`` traffic at
0.65x the rate of one, 2 vCPUs).  In process:

* a generation is ONE member — the caller's ``planner_factory`` planner
  (pinned to the generation) with its own
  :class:`~repro.serve.loop.ServingLoop` (queue, drain thread and the
  admission scope ``replica-<id>``);
* the :class:`~repro.replica.dispatch.Dispatcher` routes over that one
  member (the dispatch loop is shared with the process fleet);
* a :class:`~repro.replica.refit.RefitCoordinator` owns the hot model
  swap: it builds a standby member off-path, flips the dispatcher to it
  atomically (one lock swap — the ``fit_generation`` double-buffer), and
  retires the old member by draining it dry, so in-flight requests finish
  on the old generation while new arrivals land on the new one and
  serving never pauses.

Exactness contract: at one generation, responses are bit-identical to a
plain serving loop over the same planner for the same request trace; the
parity suite in ``tests/replica`` mirrors ``tests/serve``'s.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import Future
from typing import Callable

from repro.obs.trace import NULL_TRACER
from repro.replica.dispatch import Dispatcher
from repro.replica.refit import RefitCoordinator
from repro.replica.replica import Replica, pin_serving_generation
from repro.serve.admission import ADMISSION_COUNTERS, AdmissionController
from repro.serve.api import TypedServingSurface
from repro.serve.loop import ServingLoop
from repro.serve.queue import rollup_queue_stats
from repro.serve.request import ServeRequest
from repro.tenant.adapters import PlannerAdapter
from repro.utils.exceptions import ConfigurationError, QueueFullError, ServingError

__all__ = ["ReplicaSet"]

logger = logging.getLogger(__name__)

#: Seconds a retirement (refit or close) waits for its members to drain
#: before the leftovers are handed back to the caller.
DRAIN_TIMEOUT = 30.0


class ReplicaSet(TypedServingSurface):
    """One serving member behind the fleet core; a refit swaps it hot.

    Parameters
    ----------
    planner_factory:
        Zero-arg callable returning a *fresh, fitted* planner (anything
        with ``plan_for_requests``; in practice a
        :class:`~repro.core.beam.BeamSearchPlanner`).  Called once at
        construction and once again on every refit — it must be
        deterministic for the refit to keep answers exact.
    max_queue_depth / admission_policy / drain_deadline:
        Forwarded to every member's :class:`~repro.serve.loop.ServingLoop`
        (each gets its own queue and admission controller, labelled
        ``replica-<id>`` for per-member depth accounting).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` shared by every member's
        serving loop; ``None`` leaves tracing off (the zero-cost default).
    tenant_factory:
        Optional zero-arg callable returning a *fresh*
        :class:`~repro.tenant.registry.TenantRegistry` — called once per
        member (and again on every refit, mirroring ``planner_factory``),
        so a refit re-fits every tenant.  ``None`` keeps the member
        single-tenant (or lets ``REPRO_TENANTS`` synthesize a degenerate
        registry inside its loop).
    """

    #: Members per generation.  One in process; the process fleet sets its
    #: worker count on the instance.
    num_replicas = 1

    #: Dispatch retries across a concurrent generation flip (or a member
    #: failing under the dispatcher): an enqueue can race the retirement of
    #: the member it picked; re-picking from the post-flip active list
    #: always succeeds unless the set itself closed.
    _MAX_DISPATCH_ATTEMPTS = 8

    def __init__(
        self,
        planner_factory: "Callable[[], object]",
        max_queue_depth: "int | None" = None,
        admission_policy: "str | None" = None,
        drain_deadline: "float | None" = None,
        tracer: "object | None" = None,
        tenant_factory: "Callable[[], object] | None" = None,
    ) -> None:
        if not callable(planner_factory):
            raise ConfigurationError(
                f"{type(self).__name__} needs a zero-arg planner_factory returning "
                "a fitted planner"
            )
        if tenant_factory is not None and not callable(tenant_factory):
            raise ConfigurationError(
                "tenant_factory must be a zero-arg callable returning a "
                "TenantRegistry (one fresh set of tenant models per member)"
            )
        self._factory = planner_factory
        self._tenant_factory = tenant_factory
        # One tracer is shared by the whole fleet (including standby
        # generations built mid-refit), so a request traced across a flip
        # boundary lands in the same retained-trace list.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._loop_kwargs = dict(
            max_queue_depth=max_queue_depth,
            admission_policy=admission_policy,
            drain_deadline=drain_deadline,
        )
        #: The fleet's own admission controller.  It resolves (and
        #: validates) the knobs every member loop resolves again from the
        #: same arguments, answers ``describe()`` for the traffic drivers,
        #: and counts the refusals the fleet makes before any member is
        #: picked (expired deadlines) — ``stats()["admission"]`` sums it
        #: with the members' controllers.
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            policy=admission_policy,
            drain_deadline=drain_deadline,
        )
        self._flip_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._started = False
        self._closed = False
        #: Member ids, unique across generations (builds never overlap: the
        #: constructor, then one refit at a time under the coordinator's lock).
        self._member_indices = itertools.count()
        self._generation = 1
        self._active: "list" = []
        #: Members flipped out but not yet archived (the coordinator is
        #: still draining them); once drained dry they collapse into
        #: counter snapshots in :attr:`_retired_stats` so a long-lived set
        #: doing periodic refits never retains old generations' models.
        self._retired: "list" = []
        self._retired_stats: "list[dict]" = []
        self.dispatcher = Dispatcher([])
        self.refit_coordinator = RefitCoordinator(self)
        # Everything above exists BEFORE the first member is built: a
        # member may report back (a worker dying at start-up) immediately.
        members, _ = self._build_generation(self._generation)
        with self._flip_lock:
            self._active = members
            self._reset_dispatch(members)

    # ------------------------------------------------------------------ #
    # Member construction (also used by the refit coordinator)
    # ------------------------------------------------------------------ #
    def _make_planner(self):
        """One ``planner_factory`` call, refused (before any member is built
        from it) when it returns no planner."""
        planner = self._factory()
        PlannerAdapter(planner)
        return planner

    def _build_generation(self, generation: int) -> "tuple[list, dict]":
        """Build the fleet's members at ``generation``, ready to be flipped
        in but not yet serving: ``(members, refit-report extras)``.

        Must leave nothing behind when it raises.  Here: one member — a
        fitted planner (and tenant registry) with its own serving loop,
        not yet started."""
        planner = self._make_planner()
        pin_serving_generation(planner, generation)
        index = next(self._member_indices)
        tenants = None if self._tenant_factory is None else self._tenant_factory()
        if tenants is not None:
            tenants.pin_generation(generation)
        loop = ServingLoop(
            planner,
            admission_scope=f"replica-{index}",
            tracer=self.tracer,
            tenants=tenants,
            **self._loop_kwargs,
        )
        return [Replica(index, planner, loop, generation)], {}

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ReplicaSet":
        """Start every active member (idempotent).

        The active list is read through :meth:`active_replicas` (the flip
        lock) AFTER the started flag is set, and the refit coordinator
        re-checks the flag after its flip — so whichever of a racing
        ``start()`` / refit flip runs second sees the other's write and the
        post-flip active set always ends up started (member starts are
        idempotent, double starts are no-ops).
        """
        with self._state_lock:
            if self._closed:
                raise ServingError("cannot restart a closed replica set")
            self._started = True
        for member in self.active_replicas():
            member.start()
        return self

    def close(self) -> None:
        """Stop admissions on every member, drain them dry, release them.

        Idempotent; accepted futures always resolve — a member that fails
        to drain has its leftovers failed with ``ServingError`` (there is
        no survivor pool to re-dispatch to during close)."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        for request in self._retire(self.all_replicas()):
            if not request.future.done():
                request.fail(
                    ServingError(
                        f"replica {request.replica_index} failed to drain this "
                        "request before the replica set closed"
                    )
                )

    def __enter__(self) -> "ReplicaSet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def started(self) -> bool:
        with self._state_lock:
            return self._started

    @property
    def closed(self) -> bool:
        with self._state_lock:
            return self._closed

    def _retire(self, members: "list") -> "list[ServeRequest]":
        """Take ``members`` out of service: all stop admitting first, then
        each drains dry.  Returns the requests they failed to answer."""
        for member in members:
            member.begin_retire()
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        leftovers: "list[ServeRequest]" = []
        for member in members:
            leftovers.extend(member.retire(deadline))
        return leftovers

    # ------------------------------------------------------------------ #
    # Generation bookkeeping (the double-buffer the refit flips)
    # ------------------------------------------------------------------ #
    @property
    def fit_generation(self) -> int:
        """The generation new arrivals are served at (bumped by every flip)."""
        with self._flip_lock:
            return self._generation

    def active_replicas(self) -> "list":
        with self._flip_lock:
            return list(self._active)

    def all_replicas(self) -> "list":
        """Active members plus any flipped-out ones still draining (the
        archived generations live on as counter snapshots, see
        :meth:`archived_stats`)."""
        with self._flip_lock:
            return list(self._active) + list(self._retired)

    def archived_stats(self) -> "list[dict]":
        """Final counter snapshots of fully retired generations."""
        with self._flip_lock:
            return [dict(archived) for archived in self._retired_stats]

    def _archive_retired(self, members: "list") -> None:
        """Collapse drained-dry retired members into counter snapshots.

        Called by the refit coordinator once the old generation is retired:
        keeping whole planner+backbone objects (or worker handles) for
        every past generation would grow a long-lived set's memory without
        bound, but the stats contract (fleet-wide served/admission totals
        keep counting pre-flip work) only needs the final numbers.
        """
        snapshots = [
            {"replica": member.stats(), "loop": member.loop_stats()}
            for member in members
        ]
        with self._flip_lock:
            self._retired = [
                member for member in self._retired if member not in members
            ]
            self._retired_stats.extend(snapshots)

    def _reset_dispatch(self, members: "list") -> None:
        """Point dispatch at ``members`` (caller holds the flip lock)."""
        self.dispatcher.reset(members)

    def _forget(self, member) -> None:
        """Drop a member that stopped accepting work from dispatch."""
        self.dispatcher.forget(member)

    def _flip_to(self, standby: "list", generation: int) -> "list":
        """Atomically make ``standby`` the serving set (the refit flip).

        Returns the replaced members; the caller (the refit coordinator)
        retires them by draining them dry.  Everything inside the lock is
        pointer swaps — the flip window is microseconds, which is what
        "serving never pauses" means operationally.

        Refuses (``ServingError``) when the set closed while the standby
        was training: ``close()`` marks the set closed and then retires
        ``all_replicas()``, so a flip that landed afterwards would install
        live members nobody will ever release.  The closed flag is read
        under the same lock ordering ``close()`` writes it, and
        ``all_replicas()`` takes the flip lock, so either the flip lands
        first (and ``close()`` sees the standby members) or the flip
        refuses — never a leaked active set.
        """
        with self._flip_lock:
            with self._state_lock:
                if self._closed:
                    raise ServingError(
                        "replica set closed while the standby generation was "
                        "training; the flip is abandoned"
                    )
            previous = self._active
            self._active = list(standby)
            self._generation = generation
            self._retired.extend(previous)
            self._reset_dispatch(self._active)
        logger.info(
            "refit flip: generation %d active on %d replica(s); %d replica(s) retiring",
            generation,
            len(standby),
            len(previous),
        )
        return previous

    def refit(self) -> dict:
        """Hot model swap: see
        :meth:`repro.replica.refit.RefitCoordinator.refit`."""
        return self.refit_coordinator.refit()

    # ------------------------------------------------------------------ #
    # Submission (the ServingLoop-compatible surface)
    # ------------------------------------------------------------------ #
    def enqueue(self, request: ServeRequest) -> Future:
        """Dispatch one request to a healthy member."""
        self._admit(request)
        return self._dispatch(request, self.dispatcher)

    def _admit(self, request: ServeRequest) -> None:
        """The fleet's own admission: closed sets and expired deadlines are
        refused before any member is picked."""
        if self.closed:
            raise ServingError("replica set is closed; no new requests accepted")
        if request.deadline is not None:
            self.admission.check_deadline(request.deadline)

    def _dispatch(self, request: ServeRequest, dispatcher: Dispatcher) -> Future:
        """Pick a member, hand the request over, undo and re-pick on refusal.

        A dispatch can race a generation flip or a member failure: the
        picked member may stop accepting between pick and hand-over.  The
        request was *not* admitted in that case, so it simply re-dispatches
        against the current active set — no accepted request is ever
        dropped by a refit.  :class:`~repro.utils.exceptions.QueueFullError`
        (the ``reject`` admission policy) is back-pressure, not a race, and
        propagates.
        """
        for _ in range(self._MAX_DISPATCH_ATTEMPTS):
            member = dispatcher.pick(request)
            member.on_dispatch()
            request.replica_index = member.index
            try:
                member.accept(request)
            except QueueFullError:
                member.on_dispatch_failed()
                raise
            except (OSError, ServingError) as exc:
                # The member retired or failed between pick and hand-over —
                # or a producer blocked on its back-pressure was woken by
                # the close.  Either way nothing was admitted: undo the
                # accounting, drop any stale affinity, and re-dispatch.
                member.on_dispatch_failed()
                self._on_refused(member)
                if self.closed:
                    raise ServingError(
                        "replica set closed during dispatch; request not accepted"
                    ) from exc
                continue
            return request.future
        raise ServingError(
            f"could not place request after {self._MAX_DISPATCH_ATTEMPTS} dispatch "
            "attempts (replicas kept retiring or failing under the dispatcher)"
        )

    def _on_refused(self, member) -> None:
        """A picked member refused a hand-over (nothing was admitted)."""
        self._forget(member)

    def _redispatch(self, requests: "list[ServeRequest]", reason: str) -> int:
        """Re-enqueue requests a member failed to answer (same futures);
        returns how many were still unanswered."""
        live = [request for request in requests if not request.future.done()]
        for request in live:
            try:
                self.enqueue(request)
            except BaseException as exc:  # noqa: BLE001 - delivered via the future
                if not request.future.done():
                    request.fail(exc)
        if live:
            logger.info("re-dispatched %d request(s) after %s", len(live), reason)
        return len(live)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def planner(self):
        """A representative planner (the traffic drivers read ``max_length``
        off it); with members at one generation any of them is exact."""
        return self.active_replicas()[0].planner

    def stats(self) -> dict:
        """Fleet-wide stats, shaped like ``ServingLoop.stats()`` plus the
        replication-specific sections (per-replica load, dispatcher picks,
        refit history)."""
        active = self.active_replicas()
        members = self.all_replicas()
        archived = self.archived_stats()
        loop_stats = [member.loop_stats() for member in members]
        loop_stats += [snapshot["loop"] for snapshot in archived]
        loop_stats = [stats for stats in loop_stats if stats is not None]
        # Fleet admission = what the members' controllers counted plus what
        # the fleet's own controller refused before picking one.
        admission = self.admission.counters()
        admission["per_replica"] = [stats["admission"] for stats in loop_stats]
        for counters in admission["per_replica"]:
            for key in ADMISSION_COUNTERS:
                admission[key] += counters[key]
        # Fleet-wide tenant view: every member loop carries its own binding
        # counters; sum the volume fields per tenant id.
        tenants: "dict[str, dict]" = {}
        for stats in loop_stats:
            for name, tenant_stats in stats.get("tenants", {}).items():
                merged = tenants.setdefault(
                    name, {"tenant": name, "served": 0, "failed": 0}
                )
                merged["served"] += tenant_stats["served"]
                merged["failed"] += tenant_stats["failed"]
                merged["kinds"] = tenant_stats["kinds"]
        return {
            "num_replicas": self.num_replicas,
            **({"tenants": tenants} if tenants else {}),
            "generation": self.fit_generation,
            "served": sum(stats["served"] for stats in loop_stats),
            "resident": sum(stats["resident"] for stats in loop_stats),
            **self.admission.describe(),
            "admission": admission,
            **rollup_queue_stats(
                [queue for stats in loop_stats for queue in stats["per_queue"]]
            ),
            "dispatch": self.dispatcher.stats(),
            "replicas": [member.stats() for member in members],
            "retired_replicas": len(members) - len(active) + len(archived),
            "refits": self.refit_coordinator.history(),
        }
