"""The asynchronous serving front-end over the planner.

:class:`ServingLoop` is the boundary the ROADMAP's async-serving rung calls
for: callers submit ``next_step`` / ``plan_paths`` requests and get
:class:`concurrent.futures.Future` values back immediately.  A request
takes one of two lanes, decided at admission:

* **resident** — a ``next_step`` whose context already holds a plan (the
  commonest op of a path followed one recommendation at a time) is answered
  by the *submitting thread*: the loop asks the request's planner
  (:meth:`~repro.core.beam.BeamSearchPlanner.serve_resident`, through the
  :class:`~repro.tenant.adapters.KindAdapter` capability of the same name),
  stamps the envelope as a micro-batch of one and resolves the future before
  ``enqueue`` returns — no queue, no thread hand-over, no drain window, and
  never in the same batch as someone else's replan.  Nobody has read that
  future yet, so it is *born resolved*: built finished, with no lock to
  take and no waiter to notify;
* **queued** — everything else (a ``next_step`` no resident plan answers,
  and every ``plan_paths``) has its future *materialised* (a plain pending
  :class:`~concurrent.futures.Future`) before it enters the loop's one
  bounded :class:`~repro.serve.queue.RequestQueue` — the no-race rule: the
  drain may answer it before ``enqueue`` returns, and must complete the
  future the caller then reads — and its one drain thread
  answers everything pending as a single micro-batch through
  :meth:`~repro.core.beam.BeamSearchPlanner.plan_for_requests`.  The
  micro-batch fuses all replanning into lockstep beam calls, so the
  token-work win measured on pre-assembled batches applies to
  asynchronously arriving traffic.  A queued request whose ``deadline``
  passed while it waited is refused before its batch plans.

One queue and one drain thread, not a queue per hash shard: two queues over
one planner read 0.92x–0.93x the throughput of one on the in-process e2e
workloads (2 vCPUs) — the drains contend for the same interpreter and split
the micro-batches the lockstep beam fuses.

Exactness contract: responses are bit-identical to calling ``next_step`` /
``plan_path`` sequentially in submission order — the two lanes,
micro-batching and queueing change *when* and *where* work happens, never
*what* is answered.  Submission order includes the **pending-replan rule**:
a queued ``next_step`` may rewrite its context's plan, so while one is
queued every later ``next_step`` of that context queues behind it (FIFO)
instead of being answered from the plan it is about to replace; the entry
clears just before the queued request's future resolves, so a session's
very next step is resident again.  (The one caveat is inherited from ``plan_for_requests``: a serving
cache small enough to evict mid-batch may reorder evictions; the default
sizes never do.)

Observability: the loop owns one registry namespace (``serve.loop.<n>``)
covering its admission counters, its queue's depth/batch counters, the
``resident`` count and the in-loop latency accounting (both lanes), so
:meth:`stats` is ONE atomic registry snapshot — no more composing
independently-locked reads.  With a :class:`~repro.obs.trace.Tracer`
injected and enabled, each admitted request carries a
:class:`~repro.obs.trace.Trace`: a resident answer records ``admission``
(``resident=True``) and ``cache.decision`` (``outcome="hit"``); a queued
one records admission, queue wait and drain spans here, plus the
planner spans recorded through the drain thread's
:class:`~repro.obs.trace.BatchSink`; disabled tracing (the default)
allocates nothing on either lane.

Hot refit: :meth:`refit` swaps the model a loop answers with while it
keeps serving.  Everything a generation answers with — the planner, its
adapter, the tenant registry and the generation number — is ONE immutable
record; the standby record is built (and its models trained) off-path,
outside every lock, then flipped in under the state lock between two
drains.  The resident lane reads the record under that same lock and the
drain reads it once per batch, so every answer is stamped with the
generation that computed it, no batch mixes two, and per context the
generation never goes back.  The batch in flight at the flip finishes on
the old record, and :meth:`refit` returns once it has (after that the loop
holds nothing of the old generation).  The one thing a flip changes for a
request already admitted: one queued but not yet drained is answered by
the NEW generation.

Shutdown is graceful: :meth:`close` stops admissions on both lanes
atomically (a closed loop answers nothing, it raises), drains the queue
dry, and joins the drain thread — no accepted request is ever dropped.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.config import resolve_tenants
from repro.core.beam import MISS
from repro.obs.registry import MetricGroup, get_registry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.admission import ADMISSION_COUNTERS, AdmissionController
from repro.serve.api import Response, TypedServingSurface
from repro.serve.queue import RequestQueue, rollup_queue_stats
from repro.serve.request import ServeRequest
from repro.utils.exceptions import QueueFullError, ServingError

if TYPE_CHECKING:  # pragma: no cover - import cycle: repro.tenant imports serve
    from repro.tenant.adapters import KindAdapter
    from repro.tenant.registry import TenantRegistry

__all__ = ["ServingLoop", "pin_serving_generation"]

logger = logging.getLogger(__name__)

#: Process-wide micro-batch tags: unique across every loop, so grouping
#: answered requests by tag recovers the exact drain batches — the refit
#: race tests rely on it to see that no batch mixes two generations.  An
#: admission answer takes a tag of its own: a batch of one.
_BATCH_TAGS = itertools.count(1)

#: The loop's own counters, relative to its ``serve.loop.<n>`` scope — one
#: group, so an answered request lands in ONE registry-lock acquisition
#: whichever lane answered it.
_LOOP_COUNTERS = (
    "resident",
    "latency.served",
    "latency.wait_sum_s",
    "latency.latency_sum_s",
)
_LOOP_GAUGES = ("latency.wait_max_s", "latency.latency_max_s")
_QUEUE_STAT_FIELDS = (
    "depth",
    "enqueued",
    "depth_max",
    "depth_sum",
    "depth_samples",
    "micro_batches",
    "micro_batch_requests",
    "micro_batch_max",
    "empty_drains",
)


def pin_serving_generation(planner, generation: int) -> None:
    """Pin ``planner`` to the serving ``generation`` it is about to answer at."""
    pin = getattr(planner, "pin_generation", None)
    if pin is not None:
        pin(serving_generation=generation)
    else:
        planner.serving_generation = generation


class _Serving(NamedTuple):
    """What one generation of a loop answers with; a refit swaps it whole."""

    planner: object
    #: the planner's adapter; ``None`` when the caller's ``tenants`` answer
    adapter: "KindAdapter | None"
    tenants: "TenantRegistry | None"
    #: stamped on the planner's answers when it reports no generation of
    #: its own (a caller's registry stamps what its models report)
    generation: int


def _serving(planner, tenants: "TenantRegistry | None", generation: int) -> _Serving:
    """The serving record of the constructor and of every refit.

    Without a registry the planner is adapted (which refuses one without
    ``plan_for_requests``), and when ``REPRO_TENANTS`` asks for more than
    one tenant a degenerate registry sharing it is synthesized, so the
    tier-1 leg exercises the grouped drain path on every workload."""
    adapter = None
    if tenants is None:
        from repro.tenant.adapters import PlannerAdapter

        adapter = PlannerAdapter(planner)
        count = resolve_tenants(None)
        if count > 1:
            from repro.tenant.registry import TenantRegistry

            tenants = TenantRegistry.uniform(adapter, count)
    return _Serving(planner, adapter, tenants, generation)


class ServingLoop(TypedServingSurface):
    """Queue, micro-batch and answer planner requests asynchronously.

    Parameters
    ----------
    planner:
        Anything exposing ``plan_for_requests`` — in practice a fitted
        :class:`~repro.core.beam.BeamSearchPlanner`.
    max_queue_depth / admission_policy / drain_deadline:
        Admission-control knobs (see :mod:`repro.config` for the
        ``REPRO_*`` environment defaults): bound on queued planning work,
        ``block`` or ``reject`` on a full queue, and the
        seconds a drain holds the queue open after the first enqueue to
        fuse concurrent replans into one micro-batch (a step answered from
        a resident plan never enters a queue or waits for the window).
    admission_scope:
        Label stamped on this loop's admission counters and back-pressure
        errors (a worker process names its loop ``worker-<index>``, so depth
        accounting stays attributable per worker in fleet-wide stats).
    tracer:
        A :class:`~repro.obs.trace.Tracer` to begin per-request traces
        with.  Defaults to the disabled :data:`~repro.obs.trace.NULL_TRACER`
        — one boolean check per request, no allocation.
    tenants:
        A :class:`~repro.tenant.registry.TenantRegistry` turning this loop
        into a multi-tenant surface: drained micro-batches group per
        tenant, each tenant's generation stamps apply independently, and
        untenanted requests are assigned
        deterministically.  ``None`` (the default) serves the single
        ``planner``; when ``REPRO_TENANTS`` asks for more than one tenant,
        a degenerate registry sharing ``planner`` is synthesized so the
        tier-1 leg exercises the grouped drain path on every workload.

    The loop starts at the planner's own ``serving_generation`` when it
    has one, else at generation 1; :meth:`refit` steps it.
    """

    def __init__(
        self,
        planner,
        max_queue_depth: "int | None" = None,
        admission_policy: "str | None" = None,
        drain_deadline: "float | None" = None,
        admission_scope: "str | None" = None,
        tracer: "Tracer | None" = None,
        tenants: "TenantRegistry | None" = None,
    ) -> None:
        generation = getattr(planner, "serving_generation", None)
        #: The serving record: read under :attr:`_state_lock` by the
        #: resident lane and once per batch by the drain, replaced whole by
        #: :meth:`refit`.
        self._serving = _serving(
            planner, tenants, generation if isinstance(generation, int) else 1
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # One registry namespace for the whole loop: admission, the queue
        # and the latency accounting hang under it, so stats() is one
        # atomic snapshot of the subtree.
        registry = get_registry()
        self.metrics_scope = registry.scope("serve.loop")
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            policy=admission_policy,
            drain_deadline=drain_deadline,
            scope=admission_scope,
            metrics_scope=f"{self.metrics_scope}.admission",
        )
        self.queue = RequestQueue(self.admission, metrics_scope=f"{self.metrics_scope}.queue")
        self._thread: "threading.Thread | None" = None
        #: Guards the lifecycle flags AND the admission decision of a
        #: ``next_step`` (closed? replan pending? resident?), so that
        #: decision is atomic with :meth:`close` and with other submitters.
        self._state_lock = threading.Lock()
        self._started = False
        self._closed = False
        #: ``(record, size)`` of the batch the drain is answering, if any;
        #: a refit waits on :attr:`_drained` until the old record's is done.
        self._in_flight: "tuple[_Serving, int] | None" = None
        self._drained = threading.Condition(self._state_lock)
        self._refit_lock = threading.Lock()
        #: tenant -> ``[served, failed]`` of registries a refit replaced
        self._retired_tenants: "dict[str, list[int]]" = {}
        #: routing key -> queued ``next_step`` requests of that context.  A
        #: queued miss will rewrite the context's plan, so while any is
        #: queued, later steps of the context queue behind it instead of
        #: being answered from the plan it replaces.
        self._pending: "dict[tuple, int]" = {}
        # In-loop accounting (enqueue -> response ready): the resident count
        # and the latency sums / maxima accumulate per drained batch (or per
        # admission answer) in ONE registry-lock acquisition; full
        # distributions land in the two histograms (the traffic driver
        # keeps every sample for percentile reports).
        self._metrics = MetricGroup(
            registry, self.metrics_scope, counters=_LOOP_COUNTERS, gauges=_LOOP_GAUGES
        )
        self._latency_hist = registry.histogram(f"{self.metrics_scope}.latency.latency_ms")
        self._wait_hist = registry.histogram(f"{self.metrics_scope}.latency.wait_ms")
        self._registry = registry
        #: What a resident answer counts once: the ``resident`` and
        #: ``latency.served`` counters and one admission.
        self._resident_ones = (
            (self._metrics.counter("resident"), 1),
            (self._metrics.counter("latency.served"), 1),
            (self.admission.admitted, 1),
        )
        self._latency_sum = self._metrics.counter("latency.latency_sum_s")
        self._latency_max = self._metrics.gauge("latency.latency_max_s")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServingLoop":
        """Spawn the drain thread (idempotent)."""
        with self._state_lock:
            if self._closed:
                raise ServingError("cannot restart a closed serving loop")
            if self._started:
                return self
            self._started = True
            self._thread = threading.Thread(
                target=self._drain_worker, name="repro-serve-drain", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop admissions, drain the queue dry, join the drain thread.

        Idempotent.  On a loop that was never started the pending requests
        are served inline, so accepted futures always resolve.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        self.queue.close()
        if started:
            self._thread.join()
        else:
            self._serve_batch(self.queue.pop_all())

    def __enter__(self) -> "ServingLoop":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # The serving generation
    # ------------------------------------------------------------------ #
    @property
    def planner(self):
        """The planner of the generation serving now."""
        return self._serving.planner

    @property
    def tenants(self) -> "TenantRegistry | None":
        """The tenant registry of the generation serving now."""
        return self._serving.tenants

    @property
    def fit_generation(self) -> int:
        """The generation new arrivals are served at (stepped by :meth:`refit`)."""
        return self._serving.generation

    def refit(
        self,
        planner_factory: "Callable[[], object]",
        tenant_factory: "Callable[[], TenantRegistry] | None" = None,
    ) -> dict:
        """Hot model swap: serve the next generation without pausing.

        ``planner_factory`` (and ``tenant_factory``, for a loop serving a
        registry of its own) is called once, off-path and outside every
        lock, while the current generation keeps serving; both results are
        pinned to generation N+1.  One swap of the serving record under the
        state lock then flips the loop between two drains: the batch in
        flight finishes on generation N, everything drained or answered at
        admission afterwards — requests queued before the flip included —
        on N+1.  Returns once the batch in flight is answered, with the
        ``generation_from`` / ``generation_to`` / ``train_seconds`` /
        ``flip_seconds`` / ``inflight_at_flip`` / ``retire_seconds`` report.

        Raises :class:`~repro.utils.exceptions.ServingError` while another
        refit runs and on a closed loop (also when the loop closes while the
        standby trains: nothing is flipped in), and
        :class:`~repro.utils.exceptions.ConfigurationError` when the factory
        returns no planner.
        """
        if not self._refit_lock.acquire(blocking=False):
            raise ServingError("a refit is already in progress on this serving loop")
        try:
            with self._state_lock:
                if self._closed:
                    raise ServingError("cannot refit a closed serving loop")
                generation_to = self._serving.generation + 1
            train_started = time.perf_counter()
            planner = planner_factory()
            tenants = None if tenant_factory is None else tenant_factory()
            standby = _serving(planner, tenants, generation_to)
            pin_serving_generation(planner, generation_to)
            if tenants is not None:
                tenants.pin_generation(generation_to)
            train_seconds = time.perf_counter() - train_started

            flip_started = time.perf_counter()
            with self._state_lock:
                if self._closed:
                    raise ServingError(
                        "serving loop closed while the standby generation was "
                        "training; the flip is abandoned"
                    )
                previous, self._serving = self._serving, standby
                flipped = time.perf_counter()
                inflight = self._in_flight[1] if self._in_flight is not None else 0
                while self._in_flight is not None and self._in_flight[0] is previous:
                    self._drained.wait()
                retire_seconds = time.perf_counter() - flipped
                if previous.tenants is not None:
                    for name, stats in previous.tenants.stats().items():
                        counts = self._retired_tenants.setdefault(name, [0, 0])
                        counts[0] += stats["served"]
                        counts[1] += stats["failed"]
            logger.info(
                "refit: generation %d -> %d flipped in %.1f us "
                "(%d request(s) in flight finished on the old generation)",
                previous.generation,
                generation_to,
                1e6 * (flipped - flip_started),
                inflight,
            )
            return {
                "generation_from": previous.generation,
                "generation_to": generation_to,
                "train_seconds": round(train_seconds, 4),
                "flip_seconds": round(flipped - flip_started, 6),
                "retire_seconds": round(retire_seconds, 4),
                "inflight_at_flip": inflight,
            }
        finally:
            self._refit_lock.release()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def enqueue(self, request: ServeRequest) -> Future:
        """Admit one request envelope; returns its future (:meth:`serve` is
        the typed entry point over this).

        A ``next_step`` whose context holds a resident plan is answered
        here, on the calling thread, before this returns; everything else
        enters the queue.

        Raises :class:`~repro.utils.exceptions.QueueFullError` when the
        queue is full under the ``reject`` policy (the ``block``
        policy waits for a drain instead) or the request's deadline already
        passed, and :class:`~repro.utils.exceptions.ServingError` after
        :meth:`close`.
        """
        if request.deadline is not None:
            self.admission.check_deadline(request.deadline)
        try:
            if request.kind == "next_step":
                if self._answer_resident(request):
                    return request.future
            else:
                # Only the tenant's name is assigned here (the names survive
                # a refit); the drain answers with its own read of the record.
                tenants = self._serving.tenants
                if tenants is not None:
                    tenants.resolve(request)
                self._begin_trace(request, request.routing_key())
            # Materialised before the queue hands the request to the drain
            # thread, which may resolve it before this thread reads it.
            future = request.future
            trace = request.trace
            if trace is not None:
                admit_start = time.perf_counter()
                self.queue.put(request)
                trace.span(
                    "admission", admit_start, time.perf_counter(), replica=request.replica_index
                )
            else:
                self.queue.put(request)
        except BaseException:
            # Refused (reject policy / closed loop / the resident lookup
            # raised): the future will never resolve, so hand back the
            # pending-replan entry here.
            request.release()
            raise
        return future

    def _begin_trace(self, request: ServeRequest, key: tuple) -> None:
        # Hot-path guard: with tracing disabled this is one attribute check
        # and no allocation (the overhead contract's structural no-op).
        if self.tracer.enabled and request.trace is None:
            if request.tenant is not None:
                request.trace = self.tracer.begin(key, kind=request.kind, tenant=request.tenant)
            else:
                request.trace = self.tracer.begin(key, kind=request.kind)

    def _answer_resident(self, request: ServeRequest) -> bool:
        """Answer a ``next_step`` from its context's resident plan.

        Returns ``False`` when the request has to queue instead — no plan
        answers it, or a step of its context is already queued — having
        counted it in :attr:`_pending` until it is answered.  On a hit the
        request is a micro-batch of one: stamped (the one generation read
        happens BEFORE the lookup, the torn-batch discipline), accounted and
        resolved on this thread.  The serving record is read once, under
        the lock a refit flips it under, so a step admitted after a flip is
        never answered by the generation it replaced.

        One pass: one step-cache lookup (which counts its hit under the
        cache's lock) and ONE registry update for everything the answer
        counts — the loop's counters, the admission, both latency
        histograms and the tenant's latency.  The lock order is this
        state lock, then the cache's, then the registry's; the registry
        lock is never held while a cache lock is taken.
        """
        with self._state_lock:
            if self._closed:
                raise ServingError(
                    "the serving loop is closed; it no longer accepts requests"
                )
            serving = self._serving
            adapter = serving.adapter
            binding = None
            if serving.tenants is not None:
                # Assigns a tenant to untenanted requests BEFORE the routing
                # key is built, so a tenant's traffic keys within its own
                # key space.
                binding = serving.tenants.resolve(request)
                adapter = binding.adapter
            key = request.routing_key()
            if self.tracer.enabled:
                self._begin_trace(request, key)
            started = time.perf_counter()
            queued = key in self._pending
            if not queued:
                generation = adapter.serving_generation
                answer = adapter.serve_resident(request)
            if queued or answer is MISS:
                self._pending[key] = self._pending.get(key, 0) + 1
                request.on_release = lambda: self._forget_pending(key)
                return False
            if generation is None and serving.adapter is not None:
                generation = serving.generation
            request.enqueued_at = started
            Response.stamp(
                request,
                drain_started_at=started,
                served_generation=generation,
                batch_tag=next(_BATCH_TAGS),
            )
            latency = request.completed_at - started
            add = self._resident_ones + ((self._latency_sum, latency),)
            max_ = ((self._latency_max, latency),)
            if binding is not None:
                tenant_add, tenant_max = binding.latency_terms(
                    served=1,
                    failed=0,
                    wait_sum=0.0,
                    wait_max=0.0,
                    latency_sum=latency,
                    latency_max=latency,
                )
                add += tenant_add
                max_ += tenant_max
            self._registry.update(
                add, max_, ((self._latency_hist, 1000.0 * latency), (self._wait_hist, 0.0))
            )
        trace = request.trace
        if trace is not None:
            done = request.completed_at
            # The one span of this lane carries what a drain span would.
            trace.span(
                "admission",
                started,
                done,
                replica=request.replica_index,
                resident=True,
                served_generation=request.served_generation,
                batch_tag=request.batch_tag,
            )
            trace.span("cache.decision", started, done, outcome="hit")
            self.tracer.finish(trace)
        request.resolve(answer)
        return True

    def _forget_pending(self, key) -> None:
        """A queued ``next_step`` of context ``key`` is about to resolve:
        uncount it, so the session's very next step can be resident again."""
        with self._state_lock:
            left = self._pending[key] - 1
            if left:
                self._pending[key] = left
            else:
                del self._pending[key]

    # ------------------------------------------------------------------ #
    # Draining
    # ------------------------------------------------------------------ #
    def _drain_worker(self) -> None:
        while True:
            batch = self.queue.collect()
            if batch is None:
                return
            self._serve_batch(batch)

    def _refuse_expired(self, batch: "list[ServeRequest]") -> "list[ServeRequest]":
        """Fail every request whose deadline passed while it was queued;
        return the rest.  The refusal is the one admission gives an expired
        request (same error, counted as expired on the same controller), and
        ``fail`` hands back its pending-replan entry."""
        live = []
        for request in batch:
            if request.deadline is not None:
                try:
                    self.admission.check_deadline(request.deadline)
                except QueueFullError as exc:
                    self.tracer.finish(request.trace)
                    request.fail(exc)
                    continue
            live.append(request)
        return live

    def _serve_batch(self, batch: "list[ServeRequest]") -> None:
        """Answer one micro-batch; an empty drain is a no-op by contract.

        The serving record is read ONCE per batch, so a refit flips between
        two drains and the whole batch answers at one generation."""
        batch = self._refuse_expired(batch)
        if not batch:
            return
        with self._state_lock:
            serving = self._serving
            self._in_flight = (serving, len(batch))
        try:
            self._answer_batch(serving, batch)
        finally:
            serving = None  # a refit waiting below must find nothing of it held
            with self._state_lock:
                self._in_flight = None
                self._drained.notify_all()

    def _answer_batch(self, serving: _Serving, batch: "list[ServeRequest]") -> None:
        drain_started = time.perf_counter()
        batch_tag = next(_BATCH_TAGS)
        failures: "dict[int, BaseException]" = {}
        generations: "dict | None" = None
        tenants = serving.tenants
        if tenants is None:
            # The whole batch is one slice of the loop's own adapter: one
            # generation read before planning (the torn-batch discipline),
            # one trace sink, one failure scope.
            answers, generation, failure = serving.adapter.plan_slice(batch)
            if generation is None:
                generation = serving.generation
            if failure is not None:
                answers = [None] * len(batch)
                failures = dict.fromkeys(range(len(batch)), failure)
        else:
            # Tenant mode: the registry splits the batch per tenant and
            # plans each tenant's slice the same way, so a tenant's
            # failure and its spans stay on that tenant's requests — the
            # isolation boundary a shared drain thread must preserve.
            generation = None
            answers, generations, failures = tenants.plan_batch(batch)
            if serving.adapter is not None:  # the synthesized registry: one planner
                stamped = next(iter(generations.values()))
                generations = dict.fromkeys(
                    generations, serving.generation if stamped is None else stamped
                )
        if failures:
            logger.error(
                "serving drain failed for %d of %d request(s)",
                len(failures),
                len(batch),
                exc_info=next(iter(failures.values())),
            )
        done = time.perf_counter()
        # completed_at (and the generation/tag stamps) are written via
        # Response.stamp BEFORE the future resolves, so any thread woken by
        # future.result() reads a complete envelope; the latency sums
        # accumulate locally and land in the registry in ONE locked record
        # call per batch.
        wait_sum = 0.0
        wait_max = 0.0
        latency_sum = 0.0
        latency_max = 0.0
        per_tenant: "dict[str, list[float]]" = {}
        for index, request in enumerate(batch):
            if index in failures:
                continue
            Response.stamp(
                request,
                completed_at=done,
                drain_started_at=drain_started,
                served_generation=(
                    generation if generations is None else generations.get(request.tenant)
                ),
                batch_tag=batch_tag,
            )
            wait = drain_started - request.enqueued_at
            latency = done - request.enqueued_at
            wait_sum += wait
            latency_sum += latency
            if wait > wait_max:
                wait_max = wait
            if latency > latency_max:
                latency_max = latency
            if generations is not None:
                bucket = per_tenant.setdefault(request.tenant, [0, 0.0, 0.0, 0.0, 0.0])
                bucket[0] += 1
                bucket[1] += wait
                bucket[2] = max(bucket[2], wait)
                bucket[3] += latency
                bucket[4] = max(bucket[4], latency)
        served = len(batch) - len(failures)
        if served:
            self._metrics.record(
                add={
                    "latency.served": served,
                    "latency.wait_sum_s": wait_sum,
                    "latency.latency_sum_s": latency_sum,
                },
                max_={
                    "latency.wait_max_s": wait_max,
                    "latency.latency_max_s": latency_max,
                },
            )
            self._latency_hist.observe_many(
                1000.0 * (done - request.enqueued_at)
                for index, request in enumerate(batch)
                if index not in failures
            )
            self._wait_hist.observe_many(
                1000.0 * (drain_started - request.enqueued_at)
                for index, request in enumerate(batch)
                if index not in failures
            )
        if tenants is not None:
            failed_by_tenant: "dict[str, int]" = {}
            for index in failures:
                tenant = batch[index].tenant
                failed_by_tenant[tenant] = failed_by_tenant.get(tenant, 0) + 1
            for tenant in set(per_tenant) | set(failed_by_tenant):
                counts = per_tenant.get(tenant, [0, 0.0, 0.0, 0.0, 0.0])
                tenants.get(tenant).observe(
                    served=counts[0],
                    failed=failed_by_tenant.get(tenant, 0),
                    wait_sum=counts[1],
                    wait_max=counts[2],
                    latency_sum=counts[3],
                    latency_max=counts[4],
                )
        if self.tracer.enabled:
            for index, request in enumerate(batch):
                trace = request.trace
                if trace is not None and index not in failures:
                    trace.span("queue.wait", request.enqueued_at, drain_started)
                    trace.span(
                        "serve.drain",
                        drain_started,
                        done,
                        batch_tag=batch_tag,
                        batch_size=len(batch),
                        served_generation=request.served_generation,
                        **({"tenant": request.tenant} if request.tenant is not None else {}),
                    )
        for index, (request, answer) in enumerate(zip(batch, answers)):
            self.tracer.finish(request.trace)
            exc = failures.get(index)
            if exc is not None:
                request.fail(exc)
            else:
                request.resolve(answer)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def resident_plan(self, request: ServeRequest) -> "tuple | None":
        """The plan the model serving ``request`` (an envelope this loop
        admitted, so its tenant is assigned) holds for its context now — the
        ``resident_plan`` capability of its adapter, ``None`` without one."""
        serving = self._serving
        adapter = serving.adapter
        if serving.tenants is not None:
            adapter = serving.tenants.get(request.tenant).adapter
        return adapter.resident_plan(request)

    def resident_slots(self) -> int:
        """Plans :meth:`resident_plan` can report at once: the step-cache
        slots of the loop's models (tenants sharing one model share its)."""
        serving = self._serving
        adapters = [serving.adapter]
        if serving.tenants is not None:
            adapters = [binding.adapter for binding in serving.tenants.bindings()]
        slots = {id(a.model()): a.resident_slots for a in adapters if a.resident_slots}
        return sum(slots.values())

    def current_depth(self) -> int:
        """Requests queued right now (a point-in-time load signal; the
        replica dispatcher's EWMA feeds on the in-flight count, which
        additionally covers batches mid-plan)."""
        return len(self.queue)

    def stats(self) -> dict:
        """Queue depth, micro-batch, admission and in-loop latency counters.

        The whole report comes from ONE atomic registry snapshot of this
        loop's namespace — admission, the queue and the latency sums are
        mutually consistent, with no window for a drain thread to slip an
        update between two reads.  ``per_queue`` is a one-element list, the
        shape :meth:`RemoteReplicaSet.stats
        <repro.distributed.remote.RemoteReplicaSet.stats>` rolls a fleet's
        queues up from.  ``generation`` is the one serving now; a tenant's
        ``served`` / ``failed`` keep counting across refits.
        """
        serving = self._serving
        snapshot = get_registry().snapshot(self.metrics_scope)
        flat = dict(snapshot["counters"])
        flat.update(snapshot["gauges"])

        per_queue = [
            RequestQueue._shape_stats(
                {
                    name: flat.get(f"{self.queue.metrics_scope}.{name}", 0)
                    for name in _QUEUE_STAT_FIELDS
                }
            )
        ]

        admission = {
            name: flat.get(f"{self.metrics_scope}.admission.{name}", 0)
            for name in ADMISSION_COUNTERS
        }
        if self.admission.scope is not None:
            admission["scope"] = self.admission.scope

        latency_scope = f"{self.metrics_scope}.latency"
        served = flat.get(f"{latency_scope}.served", 0)
        wait_sum = flat.get(f"{latency_scope}.wait_sum_s", 0.0)
        latency_sum = flat.get(f"{latency_scope}.latency_sum_s", 0.0)
        latency = {
            "mean_ms": round(1000.0 * latency_sum / served, 3) if served else 0.0,
            "max_ms": round(1000.0 * flat.get(f"{latency_scope}.latency_max_s", 0.0), 3),
            "queue_wait_mean_ms": (
                round(1000.0 * wait_sum / served, 3) if served else 0.0
            ),
            "queue_wait_max_ms": round(
                1000.0 * flat.get(f"{latency_scope}.wait_max_s", 0.0), 3
            ),
        }

        tenants = {}
        if serving.tenants is not None:
            tenants = {"tenants": serving.tenants.stats()}
            with self._state_lock:
                retired = {name: list(counts) for name, counts in self._retired_tenants.items()}
            for name, (served_before, failed_before) in retired.items():
                if name in tenants["tenants"]:
                    entry = tenants["tenants"][name]
                    entry["served"] += served_before
                    entry["failed"] += failed_before
        return {
            "generation": serving.generation,
            **tenants,
            **self.admission.describe(),
            "admission": admission,
            "served": served,
            "resident": flat.get(f"{self.metrics_scope}.resident", 0),
            **rollup_queue_stats(per_queue),
            "service_latency": latency,
            "per_queue": per_queue,
        }
