"""The resident lane: a ``next_step`` a plan already answers is served where
it is admitted — on the submitting thread, never behind a drain window or
someone else's replan — and answers stay exactly those of sequential
submission order.  Counts and orderings only; nothing here reads a clock.
"""

from __future__ import annotations

import concurrent.futures
import threading

import pytest

from repro.serve import NextStepRequest, ServingLoop
from repro.serve.api import PlanRequest, Response
from repro.serve.request import ServeRequest
from repro.tenant import TenantRegistry
from repro.tenant.adapters import KindAdapter

WAIT_S = 10.0


class PlanGate:
    """Blocks every ``plan_paths_batch`` of the planners it guards while shut."""

    def __init__(self) -> None:
        self._open = threading.Event()
        self._open.set()
        self.entered = threading.Event()

    def guard(self, planner):
        plan = planner.plan_paths_batch

        def gated(*args, **kwargs):
            self.entered.set()
            assert self._open.wait(WAIT_S), "the test never reopened the gate"
            return plan(*args, **kwargs)

        planner.plan_paths_batch = gated
        return planner

    def shut(self) -> None:
        self.entered.clear()
        self._open.clear()

    def open(self) -> None:
        self._open.set()


def step(context, path=()):
    history, objective, user = context
    return NextStepRequest(
        history=history, objective=objective, path_so_far=path, user_index=user
    )


def lookups(planner) -> int:
    info = planner.cache_info()["step_cache"]
    return info["hits"] + info["misses"]


# --------------------------------------------------------------------- #
# (a) never behind a replan
# --------------------------------------------------------------------- #
def _plain_loop(make_planner, gate):
    return ServingLoop(gate.guard(make_planner()))


def _uniform_tenants(make_planner, gate):
    planner = gate.guard(make_planner())
    return ServingLoop(planner, tenants=TenantRegistry.uniform(planner, 2))


def _refitted_loop(make_planner, gate):
    loop = ServingLoop(make_planner())
    loop.refit(lambda: gate.guard(make_planner()))
    return loop


@pytest.mark.parametrize("build", [_plain_loop, _uniform_tenants, _refitted_loop])
def test_resident_step_is_answered_while_a_replan_is_blocked(
    build, make_planner, serve_contexts
):
    gate = PlanGate()
    resident_context, fresh_context = serve_contexts[0], serve_contexts[1]
    with build(make_planner, gate) as surface:
        try:
            surface.serve(step(resident_context)).result(timeout=WAIT_S)  # plans it
            gate.shut()
            fresh = surface.serve(step(fresh_context))
            assert gate.entered.wait(WAIT_S), "the fresh context never reached the planner"
            resident = surface.serve(step(resident_context))
            # Answered by this thread before serve() returned; the replan
            # submitted BEFORE it is still stuck in the planner.
            assert resident.done() and not fresh.done()
            assert resident.result().batch_tag is not None
        finally:
            gate.open()
        fresh.result(timeout=WAIT_S)
        assert fresh.result().batch_tag != resident.result().batch_tag
        assert surface.stats()["resident"] == 1


# --------------------------------------------------------------------- #
# Submission-order exactness: the pending-replan rule
# --------------------------------------------------------------------- #
def test_step_behind_a_queued_replan_of_its_context_waits_for_it(
    make_planner, serve_contexts
):
    """Miss for C queued, then a step for C that the OLD plan would answer:
    it must see the replanned entry, exactly as sequential calls would."""
    context = serve_contexts[0]
    history, objective, user = context
    twin = make_planner()
    first = twin.next_step(history, objective, [], user_index=user)
    diverged = [history[0]]
    assert diverged != [first]
    expected = [
        twin.next_step(history, objective, diverged, user_index=user),
        twin.next_step(history, objective, [], user_index=user),
    ]

    gate = PlanGate()
    planner = gate.guard(make_planner())
    with ServingLoop(planner) as loop:
        try:
            assert loop.serve(step(context)).result(timeout=WAIT_S).answer == first
            gate.shut()
            miss = loop.serve(step(context, diverged))  # will rewrite C's plan
            assert gate.entered.wait(WAIT_S)
            behind = loop.serve(step(context))  # a prefix of the OLD plan
            assert not behind.done(), "answered from the plan the queued replan replaces"
        finally:
            gate.open()
        answers = [miss.result(timeout=WAIT_S).answer, behind.result(timeout=WAIT_S).answer]
        assert answers == expected
        # The entry cleared with the replan: the context is resident again.
        assert loop.serve(step(context, diverged)).done()
        assert loop._pending == {}


def test_pending_entry_is_dropped_when_the_queue_refuses(make_planner, serve_contexts):
    from repro.utils.exceptions import QueueFullError

    loop = ServingLoop(make_planner(), max_queue_depth=1, admission_policy="reject")
    queued = loop.serve(step(serve_contexts[0]))
    with pytest.raises(QueueFullError):
        loop.serve(step(serve_contexts[1]))
    assert list(loop._pending.values()) == [1]  # only the admitted miss
    loop.close()
    assert queued.done() and loop._pending == {}


# --------------------------------------------------------------------- #
# (c) one lookup per request, on either lane
# --------------------------------------------------------------------- #
def test_every_request_is_exactly_one_step_cache_lookup(make_planner, serve_contexts):
    planner = make_planner()
    context = serve_contexts[0]
    with ServingLoop(planner) as loop:
        before = lookups(planner)
        first = loop.serve(step(context)).result(timeout=WAIT_S)  # miss: queued, planned
        assert lookups(planner) == before + 1
        loop.serve(step(context)).result(timeout=WAIT_S)  # hit: admission
        assert lookups(planner) == before + 2
        diverged = (context[0][0],)
        assert diverged != (first.answer,)
        loop.serve(step(context, diverged)).result(timeout=WAIT_S)  # entry, wrong path
        assert lookups(planner) == before + 3
        stats = loop.stats()
    info = planner.cache_info()["serving"]
    assert (info["served_from_plan"], info["replans"]) == (1, 2)
    assert (stats["served"], stats["resident"]) == (3, 1)
    assert stats["admission"]["admitted"] == 3


def test_the_resident_plan_can_be_shown_without_a_lookup(make_planner, serve_contexts):
    """``resident_plan``: what a worker mirrors on its fleet's parent — the
    context's plan as it stands, peeked (no lookup counted, recency left
    alone), through the adapter of the request's own tenant."""
    planner = make_planner(step_cache_size=7)
    tenants = TenantRegistry()
    tenants.add("irs", planner)
    tenants.add("twin", planner)
    tenants.add("stateless", _NoPlans())
    with ServingLoop(planner, tenants=tenants) as loop:
        assert loop.resident_slots() == 7  # the shared planner's slots count once
        envelope = step(serve_contexts[0]).to_envelope()
        envelope.tenant = "irs"
        assert loop.resident_plan(envelope) is None
        first = loop.enqueue(envelope).result(timeout=WAIT_S)
        before = lookups(planner)
        plan = loop.resident_plan(envelope)
        assert plan[0] == first and lookups(planner) == before
        assert planner.resident_plan(envelope) == plan
        envelope.tenant = "stateless"
        assert loop.resident_plan(envelope) is None
    assert ServingLoop(make_planner()).resident_slots() == 64


class _NoPlans(KindAdapter):
    kinds = ("next_step",)

    def model(self):
        return self


# --------------------------------------------------------------------- #
# (d) never started / closed
# --------------------------------------------------------------------- #
def test_resident_step_resolves_on_a_loop_that_was_never_started(
    make_planner, serve_contexts
):
    planner = make_planner()
    history, objective, user = serve_contexts[0]
    expected = planner.next_step(history, objective, [], user_index=user)
    loop = ServingLoop(planner)  # no drain thread exists
    future = loop.serve(step(serve_contexts[0]))
    assert future.done() and future.result().answer == expected
    miss = loop.serve(step(serve_contexts[1]))
    assert not miss.done() and loop.current_depth() == 1
    loop.close()  # serves the queued one inline
    assert miss.done()
    assert loop.stats()["served"] == 2 and loop.stats()["resident"] == 1


# --------------------------------------------------------------------- #
# (e) one future per op
# --------------------------------------------------------------------- #
def test_serve_returns_the_envelopes_own_future_lifted_once(
    make_planner, serve_contexts, monkeypatch
):
    lifted = []
    original = Response.from_envelope.__func__

    def counting(cls, request, answer):
        lifted.append(request)
        return original(cls, request, answer)

    monkeypatch.setattr(Response, "from_envelope", classmethod(counting))
    with ServingLoop(make_planner()) as loop:
        envelopes = []
        enqueue = loop.enqueue
        loop.enqueue = lambda envelope: envelopes.append(envelope) or enqueue(envelope)
        context = serve_contexts[0]
        requests = [
            step(context),  # queued
            PlanRequest(history=context[0], objective=context[1], user_index=context[2]),
            step(serve_contexts[1]),
        ]
        futures = [loop.serve(request) for request in requests]
        done, pending = concurrent.futures.wait(futures, timeout=WAIT_S)
        assert not pending
        futures.append(loop.serve(step(context)))  # resident: already done
        seen = []
        futures[-1].add_done_callback(seen.append)  # fires at once on a done future
        assert seen == [futures[-1]]
    assert [future is envelope.future for future, envelope in zip(futures, envelopes)] == [True] * 4
    assert all(isinstance(future.result(), Response) for future in futures)
    # Once per answered typed request.
    assert sorted(map(id, lifted)) == sorted(map(id, envelopes)) and len(lifted) == 4
    # An envelope handed to enqueue() directly still resolves to the bare answer.
    planner = make_planner()
    with ServingLoop(planner) as loop:
        bare = ServeRequest.create("next_step", context[0], context[1], user_index=context[2])
        assert loop.enqueue(bare) is bare.future
        assert not isinstance(bare.future.result(timeout=WAIT_S), Response)
