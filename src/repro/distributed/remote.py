"""Multi-process replica serving: the fleet of forked workers.

:class:`RemoteReplicaSet` is the one fleet: lifecycle, the refit's
prepare / commit exchange, the pick → send → undo-and-re-pick dispatch
loop, fleet admission and the ``stats()`` roll-up are its own, and it
speaks the :class:`~repro.serve.loop.ServingLoop` surface, so every traffic
driver — ``replay_lockstep``, ``run_open_loop``,
``run_replicated_open_loop`` — runs against it unchanged.  Each member is a
forked :class:`~repro.distributed.worker.ReplicaWorker` *process* (its own
GIL, plan caches and K/V arenas) reached over an ``AF_UNIX``
socketpair speaking the :mod:`repro.distributed.wire` protocol, seen from
the parent as a :class:`RemoteReplica`.

What the parent knows of its workers:

* **Dispatch by what the parent sees** — the
  :class:`~repro.replica.dispatch.Dispatcher` scores each
  :class:`RemoteReplica` (``healthy`` / ``score()``) by its own pending
  table: the requests on that worker's wire right now, then the picks it
  has taken, then its slot.  The count is exact and current; a heartbeat
  carries nothing but liveness.
* **A real failure detector** — ``healthy`` is a verdict, not a flag:
  a worker that misses ``heartbeat_misses`` consecutive heartbeat
  intervals (hung, stopped, or livelocked) is *suspected* and leaves the
  dispatch pool; a worker whose socket hits EOF (killed, crashed) is
  *dead*.  Either way its registered in-flight requests re-dispatch to the
  survivors through the normal ``enqueue`` path — the same futures, never
  dropped — and duplicate late answers are discarded by the pending-table
  discipline.  A suspected worker that resumes heartbeating rejoins after
  ``probation_beats`` consecutive beats (dead workers never rejoin).
* **A refit in place** — every worker refits its own
  :class:`~repro.serve.loop.ServingLoop`.  :meth:`RemoteReplicaSet.refit`
  sends each live worker a REFIT ``prepare`` frame; each builds generation
  N+1 with the factories it inherited at fork, on a thread of its own, and
  acks with the sha256 metas of what it built
  (:mod:`repro.distributed.artifacts`).  When every worker is ready with
  identical shas, the parent bumps :attr:`RemoteReplicaSet.fit_generation`,
  empties every mirror and the dispatch affinity, and sends ``commit``:
  each worker flips between two drains exactly as a loop does, and acks
  once the batch in flight at its flip is answered.  A failure, a sha
  disagreement, a timeout, a worker's death or ``close()`` sends ``abort``
  instead, and the fleet stays at generation N.  The same worker processes
  serve before and after, zero admitted requests dropped.
* **A parent-side mirror of each worker's plans** — a step served from an
  existing plan is the commonest op (a path is followed one ``next_step`` at
  a time), and it must not pay two process-boundary crossings.  A worker
  answers every successful ``next_step`` with *the plan that answered it*
  (its serving cache's entry for the context, peeked; see
  :mod:`repro.distributed.wire`), the parent reads the answer off the plan
  at ``len(path_so_far)``, and the worker's :class:`RemoteReplica` keeps
  the plan under ``request.routing_key()`` in an LRU as large as the
  worker's serving caches (HELLO's ``resident_slots``).
  :meth:`RemoteReplica.accept` then answers a ``next_step`` whose mirrored
  plan has its ``path_so_far`` as a prefix **on the calling thread** —
  stamped once through :meth:`Response.stamp
  <repro.serve.api.Response.stamp>` at the generation the worker served
  the plan at, with a batch tag of its own, counted (``parent_answered``)
  and traced like the serving loop's resident lane — and ships everything
  else exactly as before.  Three invariants:

  1. *Order.*  While a ``next_step`` of a context is on the wire, later
     ``next_step``s of that context go to the wire behind it (one socket,
     and the worker's own pending-replan rule, keep them FIFO); the
     in-flight count drops just before the answered request's future
     resolves, so the session's very next step can be answered here.
  2. *The mirror is the worker's entry or nothing.*  A ``next_step``
     response replaces its context's entry with the plan it carried, or
     drops the entry when it carried none (an error, a plain answer, a
     model that keeps no plans).  Late duplicates of re-dispatched requests
     write nothing; when a handle's pending work is drained for
     re-dispatch (suspicion, death, a send failure) its mirror is cleared
     with it; and the mirror is read only while the replica is healthy.
  3. *Answers are the worker's.*  Whenever no serving cache evicts a live
     session's context — every parity suite, every benchmark workload —
     answers, ``served_generation`` and per-context generation
     monotonicity are what the worker itself would have produced.  Under
     eviction pressure the caveat class of ``MAX_PINNED_SESSIONS`` applies:
     a session may replan mid-way, and *which* request triggers it may
     differ, because the worker's LRU no longer sees the hits.

  The mirror lives on the **member**, not on the fleet, because a
  :class:`RemoteReplica` is one worker for its whole life and knows the
  generation it serves: a ``(tenant, context, generation)`` key is
  implicit.  A refit's commit empties every member's mirror, and from then
  on a plan served at an older generation writes nothing (every session
  replans once on the new generation, as the dispatcher's affinity reset
  already demands); a dead, suspected or retiring worker leaves dispatch
  and takes its mirror with it; tenant placement, untenanted requests (the worker's tenant
  assignment is a pure function of the same routing key) and session
  affinity need nothing new — the fleet's admission and
  :meth:`Dispatcher.pick <repro.replica.dispatch.Dispatcher.pick>` run
  before ``accept`` as they always did.

Clock discipline (the cross-process timestamp fix): the parent stamps
``enqueued_at`` at send time and ``completed_at`` at response receipt —
both on ITS ``perf_counter`` clock, so driver latencies are always
non-negative — while queue-wait/service durations are measured inside the
owning worker on the worker's clock and cross the wire as durations only.

Exactness contract: with every worker at one shared generation (a
deterministic factory; a refit whose workers disagree on a sha256 is
refused), responses are
bit-identical to a :class:`~repro.serve.loop.ServingLoop` over the same
planner for the same request trace at any worker count — the parity suite
in ``tests/distributed``.
"""

from __future__ import annotations

import itertools
import logging
import queue
import threading
import time
from collections import OrderedDict, defaultdict
from concurrent.futures import Future
from typing import Callable

from repro.config import (
    resolve_heartbeat_interval,
    resolve_heartbeat_misses,
    resolve_num_replicas,
    resolve_probation_beats,
)
from repro.distributed import wire
from repro.distributed.artifacts import artifacts_from_planner
from repro.distributed.wire import FrameType
from repro.distributed.worker import CAN_FORK, HELLO_TIMEOUT, ReplicaWorker, spawn_worker
from repro.obs.registry import MetricGroup, get_registry
from repro.obs.trace import NULL_TRACER
from repro.replica.dispatch import Dispatcher
from repro.serve.admission import ADMISSION_COUNTERS, AdmissionController
from repro.serve.api import Response, TypedServingSurface
from repro.serve.queue import rollup_queue_stats
from repro.serve.request import ServeRequest
from repro.tenant.adapters import PlannerAdapter
from repro.tenant.registry import assign_tenant
from repro.utils.exceptions import ConfigurationError, QueueFullError, ServingError

__all__ = ["RemoteReplica", "RemoteReplicaSet"]

logger = logging.getLogger(__name__)

#: Seconds to wait for a worker's loop/admission stats round-trip before
#: falling back to the last cached snapshot.
STATS_TIMEOUT = 5.0
#: Seconds ``close()`` waits for its workers to drain before the leftovers
#: are handed back to the caller — and a refit's commit for every worker to
#: answer its batch in flight at the flip.
DRAIN_TIMEOUT = 30.0

#: Seconds a reader that met its worker's EOF waits for the process to exit
#: (a dead one has; a graceful one is in its last instructions).
EOF_REAP_TIMEOUT = 1.0

#: Batch tags of steps answered in the parent — process-wide like the
#: loops' own, from a range no worker's drain reaches (those count up from 1
#: in each process), so ``(replica_index, batch_tag)`` still names one batch.
_PARENT_TAGS = itertools.count(1 << 62)


class _PlannerProxy:
    """The few planner attributes traffic drivers read, served from HELLO."""

    def __init__(self, hello: "dict | None") -> None:
        hello = hello or {}
        self.max_length = int(hello.get("max_length", 20))
        self.name = hello.get("planner", "remote")


class RemoteReplica:
    """Parent-side view of one worker: pending table, plan mirror and
    health.

    The member surface :class:`RemoteReplicaSet` drives (``accept`` /
    ``loop_stats`` / ``commit`` / ``begin_retire`` / ``retire`` beside the
    pending table) and the one the :class:`~repro.replica.dispatch.Dispatcher`
    scores and routes by (``healthy`` / ``score()``).  ``metrics`` is the
    owning set's transport counter group (``requests_sent`` /
    ``bytes_sent`` are counted where the bytes are written,
    ``parent_answered`` where a step is answered from the mirror) and
    ``tracer`` its tracer.  :meth:`accept` is the only place
    the mirror is read, :meth:`unregister` (and the wholesale clears in
    :meth:`drain_pending` and :meth:`commit`) the only place it is written.
    """

    def __init__(self, worker: ReplicaWorker, metrics: MetricGroup, tracer=NULL_TRACER) -> None:
        self.worker = worker
        #: The worker's fleet slot (0..num_replicas-1) for life: tenant
        #: placement names these.
        self.index = worker.index
        #: The generation the worker serves; stepped by :meth:`commit`.
        self.generation = worker.generation
        self.spawned_at = time.perf_counter()
        self._metrics = metrics
        self._tracer = tracer
        self._lock = threading.Lock()
        #: Request ids only have to be unique per worker: they key THIS
        #: pending table and come back in this worker's response rows.
        self._request_ids = itertools.count(1)
        self._pending: "dict[int, ServeRequest]" = {}
        #: The mirror: routing key -> ``(plan, generation, tenant)`` — the
        #: worker's serving-cache entry as its last ``next_step`` response
        #: showed it, with the generation that response was stamped with —
        #: least recently used first; bounded by the HELLO's slot count.
        self._plans: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._plan_slots = 0
        #: routing key -> ``next_step`` requests of that context on the wire.
        self._steps_on_wire: "dict[tuple, int]" = {}
        #: tenant (``None``: a single-tenant worker) -> steps answered here.
        self._parent_answered: "defaultdict[str | None, int]" = defaultdict(int)
        self._parent_answered_total = metrics.counter("parent_answered")
        self._tenant_names: "tuple[str, ...]" = ()
        self._dead = False
        self._suspected = False
        self._retiring = False
        self._probation = 0
        self._heartbeats = 0
        self._last_heartbeat_at: "float | None" = None
        self._dispatched = 0
        self._completed = 0
        #: Set by the reader on HELLO — and on EOF, so a worker that dies
        #: during start-up fails the wait at once (``hello`` stays ``None``).
        self.hello_event = threading.Event()
        self.hello: "dict | None" = None
        #: The parent thread reading this worker's socket; the owning set
        #: starts it right after construction.
        self.reader: threading.Thread
        self._stats_serial = threading.Lock()
        self._stats_event = threading.Event()
        self._stats_cache: "dict | None" = None
        #: REFIT_ACK payloads, and ``None`` once the worker is gone.
        self.ack_queue: "queue.Queue[dict | None]" = queue.Queue()

    # ----------------------------- dispatcher surface ------------------ #
    @property
    def healthy(self) -> bool:
        # Read without the lock: every flag is written under it, one at a
        # time, and the one two-flag transition (suspected -> dead) sets
        # ``_dead`` before it clears ``_suspected`` — read in this order, no
        # interleaving shows a worker healthy that was not.
        return not (self._suspected or self._dead or self._retiring)

    def score(self) -> "tuple[int, int, int]":
        """Requests on this worker's wire, then picks so far, then slot:
        lowest is least loaded.  Read without the lock, like ``healthy``:
        a count one request stale misplaces at most that one pick."""
        return (len(self._pending), self._dispatched, self.index)

    def on_dispatch_failed(self) -> None:
        with self._lock:
            self._dispatched -= 1

    def on_complete(self) -> None:
        with self._lock:
            self._completed += 1

    # ----------------------------- fleet verbs ------------------------- #
    @property
    def planner(self) -> _PlannerProxy:
        """Driver-facing planner attributes, served from the worker's HELLO
        (the planner object itself lives in the worker process)."""
        return _PlannerProxy(self.hello)

    def accept(self, request: ServeRequest, key: "tuple | None" = None) -> None:
        """Answer a ``next_step`` the mirror covers on this thread; ship
        anything else to the worker.  Counts the request as dispatched here
        (the caller undoes that with :meth:`on_dispatch_failed` when this
        raises).  ``key`` is a ``next_step``'s routing key when the caller
        has built it already.

        The mirror is read here and nowhere else, under the lock that also
        registers a request for the wire — so a step either finds its
        context's plan with none of the context's steps in flight, or is
        counted in flight before any later step of the context looks.  An
        unhealthy replica's mirror is not consulted: the request takes the
        wire path (and its failure handling) unchanged.

        A step answered here is a micro-batch of one at the generation the
        worker served that plan at (one worker, one generation: what it
        would stamp itself) — stamped, counted and traced the way the
        serving loop's resident lane does, in one pass: one mirror lookup
        and one registry update; its future is born resolved.

        On the wire path the request's future is materialised and its
        pending-table registration happens BEFORE the send, so a fast
        response can never race its own bookkeeping; a send
        failure unregisters and raises — the request was never accepted
        anywhere, so no duplicate can exist.
        """
        started = time.perf_counter()
        if request.kind != "next_step":
            key = None
        elif key is None:
            key = request.routing_key()
        plan = None
        with self._lock:
            self._dispatched += 1
            if (
                key is not None
                and key in self._plans
                and key not in self._steps_on_wire
                and not (self._dead or self._suspected or self._retiring)
            ):
                path_so_far = request.path_so_far
                served = len(path_so_far)
                entry = self._plans[key]
                if entry[0][:served] == path_so_far:
                    plan, generation, tenant = entry
                    self._plans.move_to_end(key)
                    self._completed += 1
                    self._parent_answered[tenant] += 1
            if plan is None:
                request_id = next(self._request_ids)
                # Materialised before the reader thread can see the request:
                # it may resolve the request before this thread reads it.
                request.future
                self._pending[request_id] = request
                if key is not None:
                    self._steps_on_wire[key] = self._steps_on_wire.get(key, 0) + 1
        if plan is not None:
            request.enqueued_at = started
            Response.stamp(
                request,
                drain_started_at=started,
                served_generation=generation,
                batch_tag=next(_PARENT_TAGS),
                replica_index=self.index,
            )
            self._parent_answered_total.inc()
            trace = request.trace
            if trace is not None:
                done = request.completed_at
                trace.span(
                    "admission",
                    started,
                    done,
                    replica=self.index,
                    resident=True,
                    served_generation=generation,
                    batch_tag=request.batch_tag,
                )
                trace.span("cache.decision", started, done, outcome="hit")
                self._tracer.finish(trace)
            # The answer is read off the plan the way wire.plan_step reads it.
            step = plan[served : served + 1]
            request.resolve(step[0] if step else None)
            return
        # Parent-clock admission stamp (the satellite-1 fix): paired with
        # the parent-clock completed_at the reader writes.
        request.enqueued_at = time.perf_counter()
        try:
            sent = wire.send_frame(
                self.worker.sock,
                FrameType.REQUEST_BATCH,
                wire.encode_request_batch([(request_id, request)]),
                lock=self.worker.send_lock,
            )
        except (OSError, ServingError):
            self.unregister(request_id)
            raise
        self._metrics.record(add={"requests_sent": 1, "bytes_sent": sent})
        if request.trace is not None:
            request.trace.span(
                "admission", request.enqueued_at, time.perf_counter(), replica=self.index
            )

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def loop_stats(self) -> "dict | None":
        """The worker loop's ``stats()`` (one STATS round-trip; the last
        cached report once the worker is gone, ``None`` if it never sent
        one) with the steps this handle answered from the mirror counted in:
        each was admitted by the fleet, served, and resident."""
        report = self.fetch_stats()
        loop = None if report is None else report.get("loop")
        with self._lock:
            answered = dict(self._parent_answered)
        if loop is None or not answered:
            return loop
        total = sum(answered.values())
        loop = dict(
            loop,
            served=loop["served"] + total,
            resident=loop["resident"] + total,
            admission=dict(loop["admission"], admitted=loop["admission"]["admitted"] + total),
        )
        if "tenants" in loop:
            tenants = loop["tenants"] = dict(loop["tenants"])
            for name, count in answered.items():
                if name in tenants:
                    tenants[name] = dict(tenants[name], served=tenants[name]["served"] + count)
        return loop

    def begin_retire(self) -> None:
        """Leave dispatch and ask the worker to drain dry and exit."""
        with self._lock:
            self._retiring = True
        if not self.dead:
            try:
                self.send_control(FrameType.SHUTDOWN)
            except OSError:
                pass

    def retire(self, deadline: float) -> "list[ServeRequest]":
        """Wait (until ``deadline``) for the worker to answer what it holds
        and exit; release the process, socket and reader thread.  Returns
        the requests it failed to answer."""
        while (
            self.pending_count() and not self.dead and time.perf_counter() < deadline
        ):
            time.sleep(0.002)
        self.worker.join(timeout=max(deadline - time.perf_counter(), 0.1))
        if self.worker.alive():  # hung past the drain budget: reclaim it
            self.worker.kill()
            self.worker.join(timeout=5.0)
        # The worker is gone, so its reader runs into EOF — after it has read
        # everything the worker wrote last, its final stats report included.
        self.reader.join(timeout=5.0)
        leftovers = self.drain_pending()
        self.worker.close()
        return leftovers

    # ----------------------------- pending table ----------------------- #
    def unregister(
        self, request_id: int, record: "wire.ResponseRecord | None" = None
    ) -> "ServeRequest | None":
        """Take one request off the pending table (answered by ``record``,
        or never sent).

        The one place the mirror is written: a ``next_step`` leaving the
        table replaces its context's entry with the plan its response
        carried, or drops the entry when it carried none or carried one
        served at an older generation than the handle's (a batch in flight
        at a refit's commit), and uncounts the context's in-flight step
        BEFORE the caller resolves the future, so a session's next step can
        be answered here.  An id the table no longer holds (a late duplicate
        of a re-dispatched request) writes nothing.
        """
        with self._lock:
            request = self._pending.pop(request_id, None)
            if request is not None and request.kind == "next_step":
                key = request.routing_key()
                left = self._steps_on_wire[key] - 1
                if left:
                    self._steps_on_wire[key] = left
                else:
                    del self._steps_on_wire[key]
                if (
                    record is None
                    or record.plan is None
                    or record.served_generation != self.generation
                ):
                    self._plans.pop(key, None)
                else:
                    tenant = request.tenant
                    if tenant is None and self._tenant_names:
                        tenant = assign_tenant(self._tenant_names, key)
                    self._plans[key] = (record.plan, record.served_generation, tenant)
                    self._plans.move_to_end(key)
                    while len(self._plans) > self._plan_slots:
                        self._plans.popitem(last=False)
        return request

    def drain_pending(self) -> "list[ServeRequest]":
        """Remove and return every in-flight request (the re-dispatch set).

        The mirror goes with them: whatever the worker still answers of
        these arrives as late duplicates that update nothing, so no entry
        can be trusted to be the worker's any more."""
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            self._steps_on_wire.clear()
            self._plans.clear()
        return pending

    def commit(self, message: dict) -> None:
        """Step to the refit's generation and send the worker its COMMIT.

        Under the send lock, so a request registered after the mirror
        empties goes onto the wire behind the COMMIT, and the worker reads
        it only once its loop has flipped."""
        with self.worker.send_lock:
            with self._lock:
                self.generation = message["generation"]
                self._plans.clear()
            wire.send_frame(
                self.worker.sock, FrameType.REFIT, wire.encode_json(dict(message, verb="commit"))
            )

    def next_ack(self, refit: int, deadline: float) -> "dict | None":
        """The worker's next REFIT_ACK for refit ``refit`` (acks of an
        earlier, abandoned one are skipped); ``None`` once the worker is
        gone or ``deadline`` passes."""
        while True:
            try:
                ack = self.ack_queue.get(timeout=max(deadline - time.perf_counter(), 0.0))
            except queue.Empty:
                return None
            if ack is None:
                self.ack_queue.put(None)  # gone for every later wait too
                return None
            if ack["refit"] == refit:
                return ack

    # ----------------------------- health transitions ------------------ #
    def mark_dead(self) -> bool:
        """Transition to dead (terminal); True if this call transitioned."""
        with self._lock:
            if self._dead:
                return False
            self._dead = True
            self._suspected = False
            return True

    def mark_suspected(self) -> bool:
        with self._lock:
            if self._dead or self._suspected or self._retiring:
                return False
            self._suspected = True
            self._probation = 0
            return True

    @property
    def dead(self) -> bool:
        with self._lock:
            return self._dead

    @property
    def suspected(self) -> bool:
        with self._lock:
            return self._suspected

    @property
    def retiring(self) -> bool:
        with self._lock:
            return self._retiring

    def record_heartbeat(self, now: float, probation_beats: int) -> bool:
        """Count one liveness beat; True when a suspected worker just
        completed probation and rejoins dispatch."""
        with self._lock:
            self._heartbeats += 1
            self._last_heartbeat_at = now
            if self._suspected and not self._dead:
                self._probation += 1
                if self._probation >= probation_beats:
                    self._suspected = False
                    self._probation = 0
                    return True
            return False

    def heartbeat_age(self, now: float) -> float:
        with self._lock:
            last = self._last_heartbeat_at
        return now - (last if last is not None else self.spawned_at)

    # ----------------------------- transport helpers ------------------- #
    def send_control(self, frame_type: int, payload: bytes = b"") -> None:
        wire.send_frame(
            self.worker.sock, frame_type, payload, lock=self.worker.send_lock
        )

    def fetch_stats(self, timeout: float = STATS_TIMEOUT) -> "dict | None":
        """One STATS round-trip; the cached snapshot when the worker is
        dead/unresponsive (retired workers keep their last numbers)."""
        if self.dead:
            return self._stats_cache
        with self._stats_serial:
            self._stats_event.clear()
            try:
                self.send_control(FrameType.STATS_REQUEST)
            except OSError:
                return self._stats_cache
            self._stats_event.wait(timeout)
            return self._stats_cache

    def on_hello(self, hello: dict) -> None:
        """The worker's HELLO: identity, and what sizes the mirror."""
        self.hello = self.worker.hello = hello
        self._plan_slots = int(hello.get("resident_slots", 0))
        self._tenant_names = tuple(hello.get("tenants", ()))
        self.hello_event.set()

    def _on_stats_response(self, payload: dict) -> None:
        self._stats_cache = payload
        self._stats_event.set()

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        age_ms = 1000.0 * self.heartbeat_age(time.perf_counter())
        with self._lock:
            return {
                "index": self.index,
                "generation": self.generation,
                "pid": self.worker.pid,
                "healthy": not (self._dead or self._suspected or self._retiring),
                "dead": self._dead,
                "suspected": self._suspected,
                "retiring": self._retiring,
                "dispatched": self._dispatched,
                "completed": self._completed,
                "pending": len(self._pending),
                "parent_answered": sum(self._parent_answered.values()),
                "mirrored_plans": len(self._plans),
                "heartbeats": self._heartbeats,
                "last_heartbeat_age_ms": round(age_ms, 3),
            }


class RemoteReplicaSet(TypedServingSurface):
    """N worker *processes* behind one dispatcher, refitted hot.

    Drop-in for the :class:`~repro.serve.loop.ServingLoop` surface
    (``serve`` / ``enqueue`` / ``stats`` / context manager), so every
    traffic driver in :mod:`repro.serve.driver` runs against it unchanged.

    Parameters
    ----------
    planner_factory:
        Zero-arg callable returning a *fresh, fitted* planner (anything with
        ``plan_for_requests``; in practice a
        :class:`~repro.core.beam.BeamSearchPlanner`).  Called once in the
        parent for generation 1 — the fork's copy-on-write pages hand every
        worker its own copy — and once *in every worker* at each refit,
        which builds generation N+1 in place.  It must be deterministic:
        a refit whose workers build different weights is refused.
    num_replicas:
        The worker count; ``None`` reads ``REPRO_REPLICAS`` (default 1).
    max_queue_depth / admission_policy / drain_deadline:
        Forwarded to every worker's :class:`~repro.serve.loop.ServingLoop`
        (each gets its own queue and admission controller, labelled
        ``worker-<index>``).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` for the parent's spans;
        ``None`` leaves tracing off (the zero-cost default).
    heartbeat_interval / heartbeat_misses / probation_beats:
        The failure detector's knobs, each with a ``REPRO_*`` default.
    tenant_factory:
        Optional zero-arg callable returning a *fresh*
        :class:`~repro.tenant.registry.TenantRegistry`; it runs *inside each
        forked child* after its fresh metrics registry, so every worker gets
        its own — at start-up and again at each refit.
    tenant_placement:
        Tenant id -> fleet *slots* (0..N-1, a worker's index for life): a
        tenant's requests dispatch only to its slots' workers — the process
        boundary becomes the tenant isolation boundary.  Unplaced tenants
        (and untenanted requests) use the whole fleet.
    """

    #: Dispatch retries across a worker failing under the dispatcher: an
    #: enqueue can race the death of the worker it picked; re-picking from
    #: the survivors always succeeds unless the set itself closed.
    _MAX_DISPATCH_ATTEMPTS = 8

    def __init__(
        self,
        planner_factory: "Callable[[], object]",
        num_replicas: "int | None" = None,
        max_queue_depth: "int | None" = None,
        admission_policy: "str | None" = None,
        drain_deadline: "float | None" = None,
        tracer: "object | None" = None,
        heartbeat_interval: "float | None" = None,
        heartbeat_misses: "int | None" = None,
        probation_beats: "int | None" = None,
        tenant_factory: "Callable[[], object] | None" = None,
        tenant_placement: "dict | None" = None,
    ) -> None:
        if not CAN_FORK:
            raise ConfigurationError(
                "the process transport needs the 'fork' start method (fitted "
                "planners are shipped to workers by copy-on-write); use "
                "ServingLoop on this platform"
            )
        if not callable(planner_factory):
            raise ConfigurationError(
                f"{type(self).__name__} needs a zero-arg planner_factory returning "
                "a fitted planner"
            )
        if tenant_factory is not None and not callable(tenant_factory):
            raise ConfigurationError(
                "tenant_factory must be a zero-arg callable returning a "
                "TenantRegistry (one fresh set of tenant models per worker)"
            )
        self._factory = planner_factory
        self._tenant_factory = tenant_factory
        self.num_replicas = resolve_num_replicas(num_replicas)
        self.tenant_placement = _validate_placement(tenant_placement, self.num_replicas)
        self.heartbeat_interval = resolve_heartbeat_interval(heartbeat_interval)
        self.heartbeat_misses = resolve_heartbeat_misses(heartbeat_misses)
        self.probation_beats = resolve_probation_beats(probation_beats)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._loop_kwargs = dict(
            max_queue_depth=max_queue_depth,
            admission_policy=admission_policy,
            drain_deadline=drain_deadline,
        )
        #: The fleet's own admission controller.  It resolves (and
        #: validates) the knobs every worker loop resolves again from the
        #: same arguments, answers ``describe()`` for the traffic drivers,
        #: and counts the refusals the fleet makes before any worker is
        #: picked (expired deadlines) — ``stats()["admission"]`` sums it
        #: with the workers' controllers.
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            policy=admission_policy,
            drain_deadline=drain_deadline,
        )
        registry = get_registry()
        self._metrics = MetricGroup(
            registry,
            registry.scope("distributed.transport"),
            counters=(
                "requests_sent",
                "responses",
                "plans_received",
                "parent_answered",
                "duplicate_responses",
                "redispatched",
                "heartbeats",
                "marked_unhealthy",
                "rejoined",
                "send_errors",
                "bytes_sent",
            ),
        )
        #: Guards the fleet's generation and the dispatchers' resets.
        self._flip_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._closed = False
        self._refit_lock = threading.Lock()
        self._refits: "list[dict]" = []
        #: Numbers each refit's REFIT frames, so no ack of an abandoned one
        #: is read as a later one's.
        self._refit_serial = itertools.count(1)
        self._generation = 1
        #: The workers, one per slot, for the set's whole life.
        self._members: "list[RemoteReplica]" = []
        self.dispatcher = Dispatcher([])
        #: Per-tenant dispatchers over the tenant's placed slots.  Tenants
        #: without placement are absent and fall through to the fleet
        #: dispatcher.
        self._tenant_dispatchers = {
            tenant: Dispatcher([]) for tenant in self.tenant_placement or {}
        }
        # Everything above exists BEFORE the first worker is spawned: a
        # worker may report back (dying at start-up) immediately.
        planner = planner_factory()
        PlannerAdapter(planner)  # refuses a factory that returns no planner
        #: The artifact metas of every generation served: generation 1's
        #: computed here, each later one's as the workers agreed on it.
        self._artifacts = [artifact.meta() for artifact in artifacts_from_planner(planner, 1)]
        try:
            for index in range(self.num_replicas):
                self._members.append(self._spawn_replica(planner, index))
            self._await_hello(self._members)
        except BaseException:
            self._retire(self._members)
            raise
        with self._flip_lock:
            self._reset_dispatch()
        self._detector_stop = threading.Event()
        self._detector = threading.Thread(
            target=self._failure_detector, name="repro-failure-detector", daemon=True
        )
        self._detector.start()

    def _spawn_replica(self, planner, index: int, siblings=()) -> RemoteReplica:
        """Fork the worker of slot ``index`` serving ``planner`` at the
        fleet's generation; ``siblings`` are forks not yet members, whose
        sockets the child must close too."""
        worker = spawn_worker(
            planner,
            index,
            self._generation,
            loop_kwargs=self._loop_kwargs,
            heartbeat_interval=self.heartbeat_interval,
            # The parent-side sockets of the earlier forks.
            inherited_fds=[
                replica.worker.sock.fileno() for replica in [*self._members, *siblings]
            ],
            tenant_factory=self._tenant_factory,
            planner_factory=self._factory,
        )
        replica = RemoteReplica(worker, self._metrics, self.tracer)
        replica.reader = threading.Thread(
            target=self._reader_loop,
            args=(replica,),
            name=f"repro-remote-reader-{index}",
            daemon=True,
        )
        replica.reader.start()
        return replica

    @staticmethod
    def _await_hello(replicas: "list[RemoteReplica]") -> None:
        """Wait for every fork's HELLO; raise on one that dies or stays silent."""
        for replica in replicas:
            if not replica.hello_event.wait(HELLO_TIMEOUT):
                raise ServingError(
                    f"worker {replica.index} sent no HELLO within {HELLO_TIMEOUT:.0f}s"
                )
            if replica.hello is None:  # the reader hit EOF first
                raise ServingError(
                    f"worker {replica.index} died before sending HELLO (start-up failed)"
                )

    def _refork_dead(self) -> "list[RemoteReplica]":
        """Fork a fresh worker for every slot whose worker died, from one
        planner the factory builds here, as the constructor forks its
        workers.  The forks are not members yet: a refit swaps them in at
        its commit (they serve nothing before they serve its generation)
        and retires them when it is abandoned."""
        dead = [member for member in self._members if member.dead]
        if not dead:
            return []
        planner = self._factory()
        fresh: "list[RemoteReplica]" = []
        try:
            for member in dead:
                fresh.append(self._spawn_replica(planner, member.index, fresh))
            self._await_hello(fresh)
        except BaseException:
            self._retire(fresh)
            raise
        logger.info("refit: re-forked dead slot(s) %s", [replica.index for replica in fresh])
        return fresh

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "RemoteReplicaSet":
        """Workers serve from the fork; refuses a closed set."""
        if self.closed:
            raise ServingError("cannot restart a closed replica set")
        return self

    def close(self) -> None:
        """Graceful fleet shutdown: every worker drains dry, its process and
        reader thread are joined, the failure detector stops.

        Idempotent; accepted futures always resolve — a worker that fails
        to drain has its leftovers failed with ``ServingError`` (there is
        no survivor pool to re-dispatch to during close)."""
        self._detector_stop.set()
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        # Under the flip lock: a refit's commit either swapped its re-forked
        # workers in already, or sees the set closed and retires them itself.
        with self._flip_lock:
            members = list(self._members)
        for request in self._retire(members):
            if not request.future.done():
                request.fail(
                    ServingError(
                        f"replica {request.replica_index} failed to drain this "
                        "request before the replica set closed"
                    )
                )
        self._detector.join(timeout=5.0)

    def __enter__(self) -> "RemoteReplicaSet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        with self._state_lock:
            return self._closed

    def _retire(self, members: "list[RemoteReplica]") -> "list[ServeRequest]":
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
    # The generation a refit steps
    # ------------------------------------------------------------------ #
    @property
    def fit_generation(self) -> int:
        """The generation new arrivals are served at (bumped by every commit)."""
        with self._flip_lock:
            return self._generation

    def active_replicas(self) -> "list[RemoteReplica]":
        """The workers, one per slot — a dead one included, until the next
        refit re-forks its slot."""
        return list(self._members)

    def _reset_dispatch(self) -> None:
        """Point the fleet dispatcher, and one dispatcher per placed tenant
        over its slots' workers, at the workers with their affinity cleared,
        so every session replans once (caller holds the flip lock)."""
        self.dispatcher.reset(self._members)
        for tenant, dispatcher in self._tenant_dispatchers.items():
            dispatcher.reset([self._members[slot] for slot in self.tenant_placement[tenant]])

    def _forget(self, replica: RemoteReplica) -> None:
        """Drop a worker that stopped accepting work from the fleet
        dispatcher AND every tenant dispatcher it was placed in."""
        self.dispatcher.forget(replica)
        for dispatcher in self._tenant_dispatchers.values():
            dispatcher.forget(replica)

    def refit(self) -> dict:
        """Hot model swap in place: every worker refits its own loop.

        1. **Prepare.**  Each live worker builds generation N+1 with the
           factories it inherited at fork, on a thread of its own while it
           keeps serving, and acks with the sha256 metas of what it built —
           the expensive phase, outside every lock.
        2. **Commit.**  Once every worker is ready with identical shas, one
           step under the flip lock bumps :attr:`fit_generation`, empties
           every worker's plan mirror, clears the dispatch affinity (each
           session replans exactly once on the new model) and sends every
           worker COMMIT.  Each flips its loop between two drains: the batch
           in flight finishes on generation N, everything the worker reads
           after the COMMIT — and every request queued there but not yet
           drained — is answered by N+1.  This returns once every worker
           has acked its flip, which it does after the answers of that
           batch.
        3. **Or abort.**  A factory that raises, shas that disagree, a
           worker that dies or sends no ack within ``HELLO_TIMEOUT``, or a
           ``close()`` sends ABORT instead: no worker flips,
           :attr:`fit_generation` stays N and this raises
           :class:`~repro.utils.exceptions.ServingError` naming the cause.

        Also raises while another refit runs and on a closed set.  A slot
        whose worker died before the refit gets a fresh worker first, forked
        from a planner the factory builds in this process; it prepares with
        the others and joins dispatch at the commit (an abandoned refit
        retires it, and the slot stays dead).
        """
        if not self._refit_lock.acquire(blocking=False):
            raise ServingError("a refit is already in progress on this replica set")
        fresh: "list[RemoteReplica]" = []
        try:
            if self.closed:
                raise ServingError("cannot refit a closed replica set")
            fresh = self._refork_dead()
            members = sorted(
                [member for member in self._members if not member.dead] + fresh,
                key=lambda member: member.index,
            )
            generation_from = self.fit_generation
            generation_to = generation_from + 1
            message = {"refit": next(self._refit_serial), "generation": generation_to}
            logger.info(
                "refit: %d worker(s) preparing generation %d", len(members), generation_to
            )
            train_started = time.perf_counter()
            artifacts, problems = self._prepare(members, message)
            train_seconds = time.perf_counter() - train_started

            flip_started = time.perf_counter()
            with self._flip_lock:
                if self.closed:
                    problems.insert(0, "the replica set closed")
                if not problems:
                    replaced = [self._members[replica.index] for replica in fresh]
                    for replica in fresh:
                        self._members[replica.index] = replica
                    fresh = []
                    self._generation = generation_to
                    for member in members:
                        try:
                            member.commit(message)
                        except OSError:
                            pass  # died since it acked: its reader re-dispatches its work
                    # After every COMMIT is on the wire: a re-forked worker's
                    # first request reaches it behind its flip.
                    self._reset_dispatch()
            flipped = time.perf_counter()
            if problems:
                for member in members:
                    self._send_refit(member, message, "abort")
                raise ServingError(
                    f"refit to generation {generation_to} abandoned: " + "; ".join(problems)
                )

            deadline = flipped + DRAIN_TIMEOUT
            # The dead workers the fresh ones replaced: reap their processes.
            self._retire(replaced)
            acks = [member.next_ack(message["refit"], deadline) for member in members]
            loops = [ack["report"] for ack in acks if ack is not None and ack.get("report")]
            if len(loops) < len(members):
                logger.warning(
                    "refit: %d of %d worker(s) did not ack the flip to generation %d",
                    len(members) - len(loops),
                    len(members),
                    generation_to,
                )
            report = {
                "generation_from": generation_from,
                "generation_to": generation_to,
                "num_replicas": len(members),
                "train_seconds": round(train_seconds, 4),
                "flip_seconds": round(flipped - flip_started, 6),
                "retire_seconds": round(time.perf_counter() - flipped, 4),
                "inflight_at_flip": sum(loop["inflight_at_flip"] for loop in loops),
                "artifacts": artifacts,
            }
            with self._flip_lock:
                self._artifacts.extend(artifacts)
                self._refits.append(report)
            logger.info(
                "refit: generation %d -> %d flipped in %.1f us "
                "(%d request(s) in flight finished on the old generation)",
                generation_from,
                generation_to,
                1e6 * report["flip_seconds"],
                report["inflight_at_flip"],
            )
            return dict(report)
        finally:
            # Forks of an abandoned refit never served: retire them.
            self._retire(fresh)
            self._refit_lock.release()

    def _prepare(
        self, members: "list[RemoteReplica]", message: dict
    ) -> "tuple[list[dict] | None, list[str]]":
        """Send every member PREPARE and wait for one ack from each:
        ``(the artifact metas they agree on, [])``, or what went wrong."""
        for member in members:
            self._send_refit(member, message, "prepare")
        deadline = time.perf_counter() + HELLO_TIMEOUT
        agreed: "tuple[RemoteReplica, list[dict]] | None" = None
        problems: "list[str]" = []
        for member in members:
            ack = member.next_ack(message["refit"], deadline)
            if ack is None:
                problems.append(
                    f"worker {member.index} died"
                    if member.dead
                    else f"worker {member.index} sent no ack within {HELLO_TIMEOUT:.0f}s"
                )
            elif ack["verb"] == "failed":
                problems.append(
                    f"worker {member.index} (pid {ack['pid']}) failed to build "
                    f"generation {message['generation']}: {ack['error']}"
                )
            elif agreed is None:
                agreed = (member, ack["artifacts"])
            elif ack["artifacts"] != agreed[1]:
                problems.append(
                    f"workers {agreed[0].index} and {member.index} built different "
                    f"state (sha256 {_shas(agreed[1])} != {_shas(ack['artifacts'])}); "
                    "the factory is not deterministic"
                )
        return (None if agreed is None else agreed[1]), problems

    @staticmethod
    def _send_refit(member: RemoteReplica, message: dict, verb: str) -> None:
        try:
            member.send_control(FrameType.REFIT, wire.encode_json(dict(message, verb=verb)))
        except OSError:
            pass  # gone: its ack wait reads that from the reader's EOF

    # ------------------------------------------------------------------ #
    # Reader: everything a worker says arrives here
    # ------------------------------------------------------------------ #
    def _reader_loop(self, replica: RemoteReplica) -> None:
        sock = replica.worker.sock
        while True:
            try:
                frame = wire.recv_frame(sock)
            except (ServingError, OSError):
                frame = None
            if frame is None:
                self._on_worker_eof(replica)
                return
            frame_type, payload = frame
            if frame_type == FrameType.RESPONSE_BATCH:
                for record in wire.decode_response_batch(payload):
                    self._complete(replica, record)
            elif frame_type == FrameType.HEARTBEAT:
                self._on_heartbeat(replica)
            elif frame_type == FrameType.HELLO:
                replica.on_hello(wire.decode_json(payload))
            elif frame_type == FrameType.STATS_RESPONSE:
                replica._on_stats_response(wire.decode_json(payload))
            elif frame_type == FrameType.REFIT_ACK:
                replica.ack_queue.put(wire.decode_json(payload))
            else:
                logger.warning(
                    "unexpected frame type %s from worker %d",
                    FrameType.NAMES.get(frame_type, frame_type),
                    replica.index,
                )

    def _complete(self, replica: RemoteReplica, record: "wire.ResponseRecord") -> None:
        request = replica.unregister(record.request_id, record)
        if request is None or request.future.done():
            # A request this parent re-dispatched after suspecting the
            # worker: the survivor's answer won (or will win) — this late
            # copy is discarded, which is what makes re-dispatch safe.
            self._metrics.record(add={"duplicate_responses": 1})
            return
        replica.on_complete()
        self._metrics.record(
            add={"responses": 1}
            if record.plan is None
            else {"responses": 1, "plans_received": 1}
        )
        # Parent-clock completion stamp: driver latencies subtract two
        # parent-clock instants and can never go negative, however far the
        # worker's perf_counter epoch sits from ours (the satellite-1 fix).
        done = time.perf_counter()
        trace = request.trace
        if not record.ok:
            Response.stamp(request, completed_at=done, replica_index=replica.index)
            if trace is not None:
                self.tracer.finish(trace)
            request.fail(wire.exception_from_record(record))
            return
        drain_start = Response.stamp(
            request,
            completed_at=done,
            served_generation=record.served_generation,
            batch_tag=record.batch_tag,
            replica_index=replica.index,
            remote_queue_wait_s=record.queue_wait_s,
            remote_service_s=record.service_s,
        )
        if trace is not None:
            # The worker-measured durations are re-based onto the parent
            # clock by ``Response.stamp`` (anchored at response receipt):
            # spans cross the wire as duration fields, never timestamps.
            trace.span(
                "remote.queue.wait",
                drain_start - record.queue_wait_s,
                drain_start,
                replica=replica.index,
            )
            trace.span(
                "remote.serve.drain",
                drain_start,
                done,
                replica=replica.index,
                batch_tag=record.batch_tag,
                served_generation=record.served_generation,
            )
            self.tracer.finish(trace)
        if record.plan is None:
            request.resolve(record.answer)
        else:
            # The worker shipped the plan that answered, of which this
            # request's own path is a prefix: read the answer off it.
            request.resolve(wire.plan_step(record.plan, request.path_so_far))

    def _on_heartbeat(self, replica: RemoteReplica) -> None:
        rejoined = replica.record_heartbeat(time.perf_counter(), self.probation_beats)
        self._metrics.record(
            add={"heartbeats": 1, "rejoined": 1} if rejoined else {"heartbeats": 1}
        )
        if rejoined:
            logger.info(
                "worker %d completed probation (%d beats) and rejoined dispatch",
                replica.index,
                self.probation_beats,
            )

    def _on_worker_eof(self, replica: RemoteReplica) -> None:
        transitioned = replica.mark_dead()
        graceful = replica.retiring or self.closed
        if transitioned and not graceful:
            self._metrics.record(add={"marked_unhealthy": 1})
            logger.warning(
                "worker %d (pid %s) connection lost; re-dispatching its pending work",
                replica.index,
                replica.worker.pid,
            )
        # A worker that died before HELLO must fail the start-up wait now,
        # not after HELLO_TIMEOUT — and one that dies during a refit the
        # wait for its ack.
        replica.hello_event.set()
        replica.ack_queue.put(None)
        self._forget(replica)
        pending = replica.drain_pending()
        replica.worker.close()
        if pending:
            self._redispatch(pending, reason="eof")
        # Reap the process (a killed worker is a zombie until joined) and
        # release its Popen pipes; a worker that shut its socket while still
        # alive is reaped by its retirement instead.
        replica.worker.join(timeout=EOF_REAP_TIMEOUT)

    # ------------------------------------------------------------------ #
    # Failure detector (heartbeat timeouts; EOF is handled by the readers)
    # ------------------------------------------------------------------ #
    def _failure_detector(self) -> None:
        budget = self.heartbeat_misses * self.heartbeat_interval
        while not self._detector_stop.wait(self.heartbeat_interval):
            now = time.perf_counter()
            for replica in self.active_replicas():
                if replica.dead or replica.retiring or replica.suspected:
                    continue
                # Workers get one HELLO-to-first-beat grace interval on top
                # of the budget (the first beat lands one interval in).
                if replica.heartbeat_age(now) <= budget + self.heartbeat_interval:
                    continue
                if replica.mark_suspected():
                    self._metrics.record(add={"marked_unhealthy": 1})
                    logger.warning(
                        "worker %d missed %d heartbeat(s) (> %.0f ms): suspected; "
                        "re-dispatching its pending work",
                        replica.index,
                        self.heartbeat_misses,
                        1000.0 * budget,
                    )
                    self._forget(replica)
                    self._redispatch(replica.drain_pending(), reason="heartbeat")
    # ------------------------------------------------------------------ #
    # Submission (the ServingLoop-compatible surface)
    # ------------------------------------------------------------------ #
    def enqueue(self, request: ServeRequest) -> Future:
        """Dispatch one request to a healthy worker: answered here from the
        worker's mirrored plan, or shipped over the wire.

        Closed sets and expired deadlines are refused before any worker is
        picked.  A dispatch can race a worker failure: the picked worker
        may stop accepting between pick and hand-over.  The request was
        *not* admitted then, so it re-dispatches against the survivors — no
        accepted request is ever dropped.
        :class:`~repro.utils.exceptions.QueueFullError` (the
        ``reject`` admission policy) is back-pressure, not a race, and
        propagates.
        """
        if self._closed:  # one flag, set once under the state lock
            raise ServingError("replica set is closed; no new requests accepted")
        if request.deadline is not None:
            self.admission.check_deadline(request.deadline)
        if self.tracer.enabled and request.trace is None:
            attrs = {"kind": request.kind}
            if request.tenant is not None:
                attrs["tenant"] = request.tenant
            request.trace = self.tracer.begin(request.routing_key(), **attrs)
        key = request.routing_key() if request.kind == "next_step" else None
        for _ in range(self._MAX_DISPATCH_ATTEMPTS):
            # Tenant placement makes this set the isolation boundary: a
            # placed tenant's requests only ever reach its own slots' workers.
            dispatcher = self.dispatcher
            if request.tenant is not None:
                dispatcher = self._tenant_dispatchers.get(request.tenant, dispatcher)
            member = dispatcher.pick(request, key)
            request.replica_index = member.index
            try:
                member.accept(request, key)
            except QueueFullError:
                member.on_dispatch_failed()
                raise
            except (OSError, ServingError) as exc:
                # The worker retired or failed between pick and hand-over.
                # Nothing was admitted: undo the accounting, fail the worker
                # over, and re-dispatch.
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

    def _on_refused(self, replica: RemoteReplica) -> None:
        """A send failed: the worker is gone — whatever else it held
        re-dispatches to the survivors."""
        self._metrics.record(add={"send_errors": 1})
        if replica.mark_dead():
            self._metrics.record(add={"marked_unhealthy": 1})
        self._forget(replica)
        self._redispatch(replica.drain_pending(), reason="send failure")

    def _redispatch(self, requests: "list[ServeRequest]", reason: str) -> int:
        """Re-enqueue requests a worker failed to answer (same futures);
        returns how many were still unanswered."""
        live = [request for request in requests if not request.future.done()]
        for request in live:
            try:
                self.enqueue(request)
            except BaseException as exc:  # noqa: BLE001 - delivered via the future
                if not request.future.done():
                    request.fail(exc)
        if live:
            self._metrics.record(add={"redispatched": len(live)})
            logger.info("re-dispatched %d request(s) after %s", len(live), reason)
        return len(live)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def planner(self) -> _PlannerProxy:
        """A representative planner (the traffic drivers read ``max_length``
        off it); with workers at one generation any of them is exact."""
        return self.active_replicas()[0].planner

    def stats(self) -> dict:
        """Fleet-wide stats, shaped like ``ServingLoop.stats()`` plus the
        fleet's own sections: per-worker load, dispatcher picks, refit
        history, the placement view and a ``transport`` section (wire
        counters, failure-detector verdicts, every generation's artifact
        metas).

        Steps answered in the parent are in ``served`` / ``resident`` /
        ``tenants[name]["served"]`` like any other (each worker's
        :meth:`RemoteReplica.loop_stats` counts its own in);
        ``transport["parent_answered"]`` says how many they were."""
        members = self._members
        loop_stats = [member.loop_stats() for member in members]
        loop_stats = [stats for stats in loop_stats if stats is not None]
        # Fleet admission = what the workers' controllers counted plus what
        # the fleet's own controller refused before picking one.
        admission = self.admission.counters()
        admission["per_replica"] = [stats["admission"] for stats in loop_stats]
        for counters in admission["per_replica"]:
            for key in ADMISSION_COUNTERS:
                admission[key] += counters[key]
        # Fleet-wide tenant view: every worker loop carries its own binding
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
        for name, slots in (self.tenant_placement or {}).items():
            entry = tenants.setdefault(name, {"tenant": name, "served": 0, "failed": 0})
            entry["placement"] = list(slots)
            dispatcher = self._tenant_dispatchers.get(name)
            if dispatcher is not None:
                entry["dispatch"] = dispatcher.stats()
        with self._flip_lock:
            refits = [dict(report) for report in self._refits]
            artifacts = [dict(meta) for meta in self._artifacts]
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
            "refits": refits,
            "transport_kind": "process",
            "transport": {
                "heartbeat_interval": self.heartbeat_interval,
                "heartbeat_misses": self.heartbeat_misses,
                "probation_beats": self.probation_beats,
                **{key: int(value) for key, value in self._metrics.values().items()},
                "artifacts": artifacts,
            },
        }


def _shas(metas: "list[dict]") -> str:
    return ",".join(meta["sha256"][:12] for meta in metas)


def _validate_placement(placement: "dict | None", num_replicas: int) -> "dict | None":
    if placement is None:
        return None
    validated: "dict[str, tuple[int, ...]]" = {}
    for tenant, slots in placement.items():
        if not isinstance(tenant, str) or not tenant:
            raise ConfigurationError(
                f"tenant placement keys must be tenant ids, got {tenant!r}"
            )
        slot_tuple = tuple(int(slot) for slot in slots)
        if not slot_tuple:
            raise ConfigurationError(
                f"tenant {tenant!r} placement must name at least one fleet slot"
            )
        for slot in slot_tuple:
            if not 0 <= slot < num_replicas:
                raise ConfigurationError(
                    f"tenant {tenant!r} placement slot {slot} is outside the "
                    f"fleet (0..{num_replicas - 1})"
                )
        validated[tenant] = slot_tuple
    return validated

