"""Serving request envelopes.

A :class:`ServeRequest` is the one request type from ``serve()`` to the
beam: the planning context, the tenant/deadline envelope fields, the
:class:`concurrent.futures.Future` the caller holds, and the timestamps the
latency accounting reads.  :meth:`ServeRequest.create` validates and
normalises it once (tuples of ``int``, a checked horizon, no negative
user); every layer below — the serving loop, the tenant registry, the kind
adapters and :meth:`repro.core.beam.BeamSearchPlanner.plan_for_requests` —
reads its fields as they are.  Two kinds exist, the two things the
paper's IRS does: ``next_step`` (the next item of an influence path) and
``plan_paths`` (the whole path, Algorithm 1).  Typed construction lives
in :mod:`repro.serve.api`.

One future per request: :meth:`ServeRequest.resolve` / :meth:`ServeRequest.fail`
are the only places a serving future is completed (as
:meth:`Response.stamp <repro.serve.api.Response.stamp>` is the only stamp
site).  They first hand back whatever the request held while it was in
flight (:attr:`ServeRequest.on_release`) — ``Future.set_result`` wakes waiters
*before* it runs done-callbacks, so anything released in a done-callback
could still be held when the woken client submits its next step — and then
complete the future, with a typed :class:`~repro.serve.api.Response` when
the envelope came from ``serve()`` (:attr:`ServeRequest.lift`) and the raw
answer otherwise.

A future is built only when a waiter can exist.  :attr:`ServeRequest.future`
is made on first read: read before the request resolves, it *materialises*
a plain pending :class:`~concurrent.futures.Future`, which :meth:`resolve`
/ :meth:`fail` complete as any future is completed.  A request resolved
before anyone read its future — a step answered on the submitting thread
from a plan the surface holds, on either front-end — is instead *born
resolved*: :meth:`resolve` stores a :class:`_Resolved` future, built
finished with its result, that takes no lock (its condition is made only if
``concurrent.futures.wait`` / ``as_completed`` or ``repr`` asks for one).
The no-race rule: a request's future is materialised before any other
thread can see the request — the serving loop reads it before the queue
hand-over, the fleet parent before it registers the request for the wire —
so only the admitting thread ever resolves a request whose future nobody
has read, and a caller can never hold a future that does not complete.

:meth:`ServeRequest.routing_key` is the ``(history, objective, user)``
context key the serving loop keeps its pending-replan entries, trace ids
and tenant assignment by (the last through
:func:`repro.shard.partition.stable_hash`, identical across interpreters).
Tenanted requests prefix the tenant id, so one tenant's traffic forms its
own stable routing-key space for the dispatcher.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures._base import FINISHED, LOGGER
from dataclasses import dataclass, field
from typing import Callable

from repro.utils.exceptions import ConfigurationError

__all__ = ["ServeRequest", "REQUEST_KINDS"]

REQUEST_KINDS = ("next_step", "plan_paths")


class _Resolved(Future):
    """A :class:`~concurrent.futures.Future` born finished, holding its result.

    What a request answered before anyone read its future resolves to: no
    ``Future.__init__`` (so no ``Condition`` and no ``RLock``), no
    ``set_result`` (so no notify), and every read answers from the state it
    was born in.  ``concurrent.futures.wait`` / ``as_completed`` and
    ``__repr__`` reach for the condition and the waiter list; those are made
    on first use (``dict.setdefault``, so two threads asking at once get the
    same one).  Completing it again raises as on any finished future.
    """

    _state = FINISHED
    _exception = None

    def __init__(self, result: object) -> None:
        self._result = result

    def __getattr__(self, name: str):
        # Reached only for the attributes __init__ skipped.
        if name == "_condition":
            return self.__dict__.setdefault(name, threading.Condition())
        if name == "_waiters":
            return self.__dict__.setdefault(name, [])
        raise AttributeError(name)

    def cancel(self) -> bool:
        return False

    def cancelled(self) -> bool:
        return False

    def running(self) -> bool:
        return False

    def done(self) -> bool:
        return True

    def result(self, timeout: "float | None" = None) -> object:
        return self._result

    def exception(self, timeout: "float | None" = None) -> None:
        return None

    def add_done_callback(self, fn) -> None:
        # A finished future runs the callback at once, on this thread.
        try:
            fn(self)
        except Exception:
            LOGGER.exception("exception calling callback for %r", self)


# eq=False: an envelope equals only itself — two callers may send requests
# with the same fields, and each is owed its own answer.
@dataclass(eq=False)
class ServeRequest:
    """One queued serving request plus its future and latency timestamps."""

    kind: str
    history: tuple[int, ...]
    objective: int
    path_so_far: tuple[int, ...] = ()
    user_index: "int | None" = None
    max_length: "int | None" = None
    #: tenant id this request is served under (``None`` = the
    #: single-tenant surface); selects the tenant's model and prefixes the
    #: routing key
    tenant: "str | None" = None
    #: optional absolute ``time.perf_counter()`` instant after which the
    #: caller no longer wants the answer; admission rejects expired
    #: requests instead of spending a drain slot on them.  An instant of
    #: the clock of the process holding the envelope: the process transport
    #: ships the budget left and re-anchors it on the worker's clock.
    deadline: "float | None" = None
    #: the request's future, once read or resolved (see :attr:`future`)
    _future: "Future | None" = field(default=None, init=False, repr=False)
    #: ``time.perf_counter()`` at queue admission — stamped by
    #: :meth:`repro.serve.queue.RequestQueue.put` once space exists, NOT at
    #: envelope creation: a producer blocked by back-pressure must not
    #: pre-age the drain-deadline window or count its admission wait as
    #: queue wait.
    enqueued_at: float = 0.0
    #: ``time.perf_counter()`` when the drain produced the answer — written
    #: via :meth:`repro.serve.api.Response.stamp` BEFORE the future
    #: resolves, so any thread woken by ``future.result()`` reads a
    #: complete timestamp (the traffic driver's per-request latency samples
    #: rely on this ordering).
    completed_at: "float | None" = None
    #: ``time.perf_counter()`` when the drain that answered this request
    #: began — stamped next to :attr:`completed_at`.
    #: ``completed_at - drain_started_at`` is pure service time and
    #: ``drain_started_at - enqueued_at`` pure queue wait, both durations
    #: within ONE process's clock, which is what the distributed transport
    #: ships across the wire (perf_counter epochs differ per process, so
    #: raw timestamps must never cross a process boundary).
    drain_started_at: "float | None" = None
    #: Worker-measured queue-wait / service durations (seconds), set by
    #: :class:`~repro.distributed.remote.RemoteReplicaSet` on requests that
    #: were served in another process.  ``None`` for in-process serving —
    #: there the caller derives both from the timestamps directly.
    remote_queue_wait_s: "float | None" = None
    remote_service_s: "float | None" = None
    #: The ``serving_generation`` of the planner that answered — read ONCE
    #: per drained micro-batch and stamped on every request of the batch, so
    #: a micro-batch can never report a torn (mixed-generation) answer set.
    #: ``None`` until answered, and for planners that expose no generation.
    served_generation: "int | None" = None
    #: Process-wide id of the drained micro-batch this request was answered
    #: in (stamped with :attr:`served_generation`); the refit race tests
    #: group responses by it to assert the one-generation-per-batch
    #: invariant across a hot model swap.
    batch_tag: "int | None" = None
    #: Worker that served this request, when routed through a
    #: :class:`~repro.distributed.RemoteReplicaSet` (``None`` under a
    #: :class:`~repro.serve.loop.ServingLoop`).
    replica_index: "int | None" = None
    #: The request's :class:`~repro.obs.trace.Trace`, begun by the serving
    #: loop at admission when its tracer is enabled and this request was
    #: sampled; ``None`` otherwise (the default — tracing is opt-in, and an
    #: untraced request never allocates a trace object).  Typed loosely so
    #: the envelope does not import the observability layer.
    trace: "object | None" = None
    #: ``lift(envelope, answer)`` -> what the future resolves to.  Set by
    #: :meth:`~repro.serve.api.TypedServingSurface.serve` to
    #: :meth:`Response.from_envelope <repro.serve.api.Response.from_envelope>`;
    #: ``None`` (envelopes handed to ``enqueue`` directly, and every
    #: worker-side envelope) resolves the future to the raw answer.
    lift: "Callable[[ServeRequest, object], object] | None" = None
    #: Hands back what the request holds while queued (its context's
    #: pending-replan entry); set by the loop that queued it, run once by
    #: :meth:`resolve` / :meth:`fail` BEFORE the future completes.
    on_release: "Callable[[], None] | None" = None

    @classmethod
    def create(
        cls,
        kind: str,
        history,
        objective,
        path_so_far=(),
        user_index: "int | None" = None,
        max_length: "int | None" = None,
        tenant: "str | None" = None,
        deadline: "float | None" = None,
    ) -> "ServeRequest":
        """Validate and freeze one request (the submit-side constructor)."""
        if kind not in REQUEST_KINDS:
            raise ConfigurationError(
                f"request kind must be one of {', '.join(REQUEST_KINDS)}, got {kind!r}"
            )
        # max_length problems are rejected at admission rather than at drain
        # time: a poisoned request inside a micro-batch would otherwise fail
        # the whole batch's futures instead of just this caller.
        if kind == "next_step" and max_length is not None:
            raise ConfigurationError(
                "next_step requests cannot override max_length; the planner's "
                "constructor-level horizon keys the serving cache"
            )
        if max_length is not None:
            if not isinstance(max_length, int) or isinstance(max_length, bool):
                raise ConfigurationError(
                    f"max_length must be an integer, got {max_length!r}"
                )
            if max_length <= 0:
                raise ConfigurationError(
                    f"max_length must be positive, got {max_length}"
                )
        history = tuple(map(int, history))
        if user_index is not None:
            user_index = int(user_index)
            # The wire encodes "no user" as -1 and decodes every negative as
            # None: a negative user would key routing, the step cache and the
            # tenant assignment differently on the two transports.
            if user_index < 0:
                raise ConfigurationError(
                    f"user_index must be non-negative or None, got {user_index}"
                )
        if deadline is not None:
            deadline = float(deadline)
        return cls(
            kind=kind,
            history=history,
            objective=int(objective),
            path_so_far=tuple(map(int, path_so_far or ())),
            user_index=user_index,
            max_length=max_length,
            tenant=None if tenant is None else str(tenant),
            deadline=deadline,
        )

    # ------------------------------------------------------------------ #
    # Completion: the only place a serving future is resolved
    # ------------------------------------------------------------------ #
    @property
    def future(self) -> Future:
        """The caller's future: materialised (pending) on a read before the
        request resolves, born resolved when :meth:`resolve` came first."""
        future = self._future
        if future is None:
            future = self._future = Future()
        return future

    def release(self) -> None:
        """Run :attr:`on_release` (once).  Also what a loop calls when it
        refuses a request it had already counted."""
        on_release, self.on_release = self.on_release, None
        if on_release is not None:
            on_release()

    def resolve(self, answer: object) -> None:
        """Complete the future with ``answer`` (stamps are already written);
        a future nobody has read yet is born resolved."""
        if self.on_release is not None:
            self.release()
        lift = self.lift
        if lift is not None:
            answer = lift(self, answer)
        future = self._future
        if future is None:
            self._future = _Resolved(answer)
        else:
            future.set_result(answer)

    def fail(self, exc: BaseException) -> None:
        """Complete the future with ``exc``."""
        self.release()
        self.future.set_exception(exc)

    # ------------------------------------------------------------------ #
    def routing_key(self) -> tuple:
        """The stable routing key — the canonical
        :func:`~repro.shard.partition.context_key` of fields :meth:`create`
        already normalised; tenanted requests prefix the tenant so each
        tenant owns a disjoint, stable routing-key space."""
        if self.tenant is None:
            return (self.history, self.objective, self.user_index)
        return (self.tenant, self.history, self.objective, self.user_index)
