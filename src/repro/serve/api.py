"""The typed request/response API of the serving stack.

Both serving front-ends (:class:`~repro.serve.loop.ServingLoop` and
:class:`~repro.distributed.remote.RemoteReplicaSet`) speak one surface:

    ``serve(request) -> Future[Response]``

where ``request`` is one of two frozen dataclasses sharing a common
envelope (tenant id, deadline, and the derived routing key) — the two
things the paper's IRS does:

* :class:`NextStepRequest` — the next item of an evolving influence plan
  (the stepwise serving workload);
* :class:`PlanRequest` — a full influence path to an objective
  (Algorithm 1).

Each typed request lowers to one
:class:`~repro.serve.request.ServeRequest` envelope — the request type every
layer below reads, from the front-end's queue to the beam.  The answered
envelope lifts back into a typed :class:`Response` carrying the answer, the
tenant, the ``served_generation``/``batch_tag`` stamps and both latency
endpoints — the envelope's own future resolves to it (one future per
request).

:meth:`Response.stamp` is the one place completion timestamps are
written.  The in-process drain and the process transport historically
duplicated this logic (``loop.py`` stamped ``drain_started_at`` /
``completed_at`` directly; ``remote.py`` stamped a parent-clock
``completed_at`` and re-based the worker-shipped durations with its own
``max(..., 0.0)`` clamps) — both now call :meth:`Response.stamp`, and the
never-negative regression tests live alongside it in
``tests/serve/test_response_stamp.py``.

``serve(request)`` is the only typed entry point; drivers that need the
envelope afterwards (to read its stamps) build one with
:meth:`ServeRequest.create <repro.serve.request.ServeRequest.create>` and
hand it to the front-end's ``enqueue(envelope)``.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

from repro.serve.request import ServeRequest

__all__ = [
    "Request",
    "NextStepRequest",
    "PlanRequest",
    "Response",
    "TypedServingSurface",
]


@dataclass(frozen=True)
class Request:
    """The common envelope of every typed serving request.

    ``tenant`` routes the request to its tenant's model (``None`` = the
    single-tenant surface);
    ``deadline`` is an optional absolute ``time.perf_counter()`` instant
    after which the caller no longer wants the answer — admission rejects
    already-expired requests instead of wasting a drain slot on them.
    """

    tenant: "str | None" = field(default=None, kw_only=True)
    deadline: "float | None" = field(default=None, kw_only=True)

    #: the envelope kind this request lowers to
    kind: ClassVar[str] = ""

    def to_envelope(self) -> ServeRequest:
        raise NotImplementedError

    def routing_key(self) -> tuple:
        """The stable dispatch routing key (tenant-prefixed)."""
        return self.to_envelope().routing_key()


@dataclass(frozen=True)
class NextStepRequest(Request):
    """Serve the next item of the current influence plan for one context."""

    history: Sequence[int] = ()
    objective: int = 0
    path_so_far: Sequence[int] = ()
    user_index: "int | None" = None

    kind: ClassVar[str] = "next_step"

    def to_envelope(self) -> ServeRequest:
        return ServeRequest.create(
            "next_step",
            self.history,
            self.objective,
            self.path_so_far,
            self.user_index,
            None,
            tenant=self.tenant,
            deadline=self.deadline,
        )


@dataclass(frozen=True)
class PlanRequest(Request):
    """Plan one full influence path to ``objective``."""

    history: Sequence[int] = ()
    objective: int = 0
    user_index: "int | None" = None
    max_length: "int | None" = None

    kind: ClassVar[str] = "plan_paths"

    def to_envelope(self) -> ServeRequest:
        return ServeRequest.create(
            "plan_paths",
            self.history,
            self.objective,
            (),
            self.user_index,
            self.max_length,
            tenant=self.tenant,
            deadline=self.deadline,
        )


@dataclass
class Response:
    """One answered serving request, with its stamps and latency endpoints."""

    kind: str
    answer: object
    tenant: "str | None" = None
    served_generation: "int | None" = None
    batch_tag: "int | None" = None
    replica_index: "int | None" = None
    enqueued_at: float = 0.0
    drain_started_at: "float | None" = None
    completed_at: "float | None" = None
    #: worker-measured durations for requests served across the process
    #: boundary (``None`` in-process — both derive from the stamps there)
    remote_queue_wait_s: "float | None" = None
    remote_service_s: "float | None" = None

    @property
    def latency_s(self) -> float:
        """End-to-end sojourn on the caller's clock (never negative: both
        endpoints are stamped by the same process)."""
        if self.completed_at is None:
            return 0.0
        return max(self.completed_at - self.enqueued_at, 0.0)

    @property
    def queue_wait_s(self) -> float:
        """Time between admission and the answering drain's start."""
        if self.remote_queue_wait_s is not None:
            return self.remote_queue_wait_s
        if self.drain_started_at is None:
            return 0.0
        return max(self.drain_started_at - self.enqueued_at, 0.0)

    @property
    def service_s(self) -> float:
        """Time inside the answering drain."""
        if self.remote_service_s is not None:
            return max(self.remote_service_s - (self.remote_queue_wait_s or 0.0), 0.0)
        if self.completed_at is None or self.drain_started_at is None:
            return 0.0
        return max(self.completed_at - self.drain_started_at, 0.0)

    # ------------------------------------------------------------------ #
    @staticmethod
    def stamp(
        request: ServeRequest,
        *,
        completed_at: "float | None" = None,
        drain_started_at: "float | None" = None,
        served_generation: "int | None" = None,
        batch_tag: "int | None" = None,
        replica_index: "int | None" = None,
        remote_queue_wait_s: "float | None" = None,
        remote_service_s: "float | None" = None,
    ) -> float:
        """Write the completion stamps of one envelope, in one place.

        Rules enforced here (previously duplicated between the in-process
        drain and the process transport, and easy to drift):

        * both latency endpoints are instants of the *caller's* clock —
          worker processes ship durations, never timestamps, so a latency
          subtraction can never go negative however far apart the
          ``perf_counter`` epochs sit;
        * remote durations re-base onto the caller's clock anchored at the
          response receipt, clamped at zero (``drain_started_at = done -
          max(service - queue_wait, 0)``), so derived spans are sane even
          when a worker measured a shorter service than queue wait;
        * stamps are written BEFORE the future resolves (the callers'
          contract), so any thread woken by ``future.result()`` reads a
          complete envelope.

        Returns the effective ``drain_started_at`` (the trace-span anchor).
        """
        done = time.perf_counter() if completed_at is None else completed_at
        if remote_service_s is not None:
            queue_wait = remote_queue_wait_s or 0.0
            drain_started_at = done - max(remote_service_s - queue_wait, 0.0)
            request.remote_queue_wait_s = remote_queue_wait_s
            request.remote_service_s = remote_service_s
        request.completed_at = done
        if drain_started_at is not None:
            request.drain_started_at = drain_started_at
        request.served_generation = served_generation
        request.batch_tag = batch_tag
        if replica_index is not None:
            request.replica_index = replica_index
        return drain_started_at if drain_started_at is not None else done

    @classmethod
    def from_envelope(cls, request: ServeRequest, answer: object) -> "Response":
        """Lift one answered envelope into the typed response."""
        return cls(
            kind=request.kind,
            answer=answer,
            tenant=request.tenant,
            served_generation=request.served_generation,
            batch_tag=request.batch_tag,
            replica_index=request.replica_index,
            enqueued_at=request.enqueued_at,
            drain_started_at=request.drain_started_at,
            completed_at=request.completed_at,
            remote_queue_wait_s=request.remote_queue_wait_s,
            remote_service_s=request.remote_service_s,
        )


class TypedServingSurface:
    """The one ``serve(request) -> Future[Response]`` entrypoint.

    Mixed into every serving front-end; requires only the host's
    ``enqueue(envelope)`` method, which returns the envelope's future, so
    the front-ends stay identical from the caller's side.  There is one
    future per request: the envelope's own, which :meth:`ServeRequest.resolve
    <repro.serve.request.ServeRequest.resolve>` completes with the lifted
    :class:`Response` on whichever thread answers (born resolved when that
    is the admitting thread).
    """

    def serve(self, request: Request) -> "Future[Response]":
        """Admit one typed request; the future resolves to a :class:`Response`."""
        envelope = request.to_envelope()
        envelope.lift = Response.from_envelope
        return self.enqueue(envelope)
