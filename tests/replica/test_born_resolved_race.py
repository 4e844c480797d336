"""No caller holds a future that never completes.

A request's future is made on first read, and a request resolved before
anyone read it is born resolved (``repro.serve.request``).  So a request
must hold a real future before a thread other than the admitting one can
see it: the serving loop materialises it before the queue hands the request
to the drain, the fleet parent before it registers the request for the
wire.  Here an adapter that answers at once lets the drain (or the wire
reader) resolve a queued ``next_step`` / ``plan_paths`` before the caller
reads ``.future`` — on the loop and on the process fleet, under the
``fleet`` fixture's leak check.
"""

from __future__ import annotations

import concurrent.futures
import time

import pytest

from repro.serve.request import ServeRequest
from repro.tenant import TenantRegistry
from repro.tenant.adapters import KindAdapter
from repro.utils.exceptions import ServingError

#: requests submitted per test, half of each kind
REQUESTS = 40
JOIN_TIMEOUT = 30.0


class _InstantAdapter(KindAdapter):
    """Answers every request at once."""

    kinds = ("next_step", "plan_paths")

    def model(self):
        return None

    def plan_for_requests(self, requests):
        return [
            request.objective if request.kind == "next_step" else [request.objective]
            for request in requests
        ]


class _Handover:
    """Counts the requests handed to another thread without a future: at
    the loop's queue put, or at the fleet handle's pending-table
    registration."""

    def __init__(self) -> None:
        self.bare = 0

    def check(self, request: ServeRequest) -> None:
        self.bare += request._future is None

    def watch_queue(self, loop) -> None:
        put = loop.queue.put

        def checked_put(request, *args, **kwargs):
            self.check(request)
            return put(request, *args, **kwargs)

        loop.queue.put = checked_put

    def watch_table(self, replica) -> None:
        check = self.check

        class WatchedTable(dict):
            def __setitem__(self, request_id, request) -> None:
                check(request)
                super().__setitem__(request_id, request)

        replica._pending = WatchedTable()


@pytest.fixture()
def instant(fleet, make_factory):
    """(front-end, handover) with every request answered by the instant
    adapter and every hand-over to another thread watched."""

    def tenant_factory():
        registry = TenantRegistry()
        registry.add("t", _InstantAdapter())
        return registry

    front_end = fleet(make_factory(), tenant_factory=tenant_factory)
    handover = _Handover()
    if fleet.transport == "process":
        for replica in front_end.active_replicas():
            handover.watch_table(replica)
    else:
        handover.watch_queue(front_end)
    return front_end, handover


def _requests(count: int = REQUESTS) -> "list[ServeRequest]":
    return [
        ServeRequest.create(
            "next_step" if index % 2 else "plan_paths",
            (1 + index % 7, 2, 3),
            10 + index,
            tenant="t",
        )
        for index in range(count)
    ]


def _answered(request: ServeRequest) -> bool:
    """Stamped by the answering thread just before it resolves."""
    return request.completed_at is not None


def _wait(predicate, timeout: float = JOIN_TIMEOUT) -> bool:
    deadline = time.perf_counter() + timeout
    while not predicate() and time.perf_counter() < deadline:
        time.sleep(0.001)
    return predicate()


def test_the_drain_answers_before_the_caller_reads(instant):
    """The caller reads ``.future`` only once the other thread has
    answered: what it reads is the future that was completed."""
    front_end, handover = instant
    requests = _requests()
    for request in requests:
        front_end.enqueue(request)  # the returned future is not read
        assert _wait(lambda: _answered(request))
        assert request.future.result(timeout=JOIN_TIMEOUT) == (
            request.objective if request.kind == "next_step" else [request.objective]
        )
    assert handover.bare == 0, "a request was handed over without a future"


def test_reads_racing_the_answer_all_complete(instant):
    """Reads at every point of the race: right after ``enqueue`` returns,
    while the batch is on its way, and after every answer landed."""
    front_end, handover = instant
    requests = _requests()
    early = []
    for index, request in enumerate(requests):
        front_end.enqueue(request)
        if index % 3 == 0:
            early.append(request.future)
    futures = [request.future for request in requests]
    done, not_done = concurrent.futures.wait(futures, timeout=JOIN_TIMEOUT)
    assert not not_done, f"{len(not_done)} future(s) never completed"
    assert all(future.done() for future in early)
    assert all(request.future is future for request, future in zip(requests, futures))
    assert handover.bare == 0, "a request was handed over without a future"


def test_a_refused_request_is_never_resolved(instant):
    front_end, _ = instant
    front_end.close()
    for request in _requests(2):
        with pytest.raises(ServingError, match="closed"):
            front_end.enqueue(request)
        assert request.future.done() is False
