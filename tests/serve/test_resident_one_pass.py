"""The resident lane in one pass: one step-cache lookup and one serve-side
registry update per answer, counting exactly what the per-field lane
counted (:mod:`tests.serve.reference_resident`), and never holding the
registry lock while a cache lock is taken.

The parity runs drive a loop that was never started, from this thread
only, on a clock that advances a fixed tick per read: two runs of one
script read identical instants, so latency sums, maxima and histogram
buckets compare to the value.
"""

from __future__ import annotations

import threading
import time
import types

import pytest

from repro.obs.registry import MetricsRegistry, set_registry
from repro.serve import NextStepRequest, ServingLoop
from repro.serve.api import PlanRequest
from repro.tenant import TenantRegistry

from tests.serve.conftest import MAX_LENGTH
from tests.serve.reference_resident import answer_resident_per_field

TICK_S = 0.0007  # 0.7 ms: resident answers and drained batches span several buckets


class _TickClock:
    def __init__(self) -> None:
        self.now = 1000.0
        self._extra: "list[float]" = []

    def __call__(self) -> float:
        self.now += TICK_S + (self._extra.pop(0) if self._extra else 0.0)
        return self.now

    def stall(self, seconds: float) -> None:
        """The read after next comes ``seconds`` late: a resident answer
        reads the clock twice, so the next one takes that much longer."""
        self._extra = [0.0, seconds]


def _plain(make_planner):
    planner = make_planner()
    return ServingLoop(planner), [planner]


def _uniform_tenants(make_planner):
    planner = make_planner()
    return ServingLoop(planner, tenants=TenantRegistry.uniform(planner, 2)), [planner]


def _two_models(make_planner):
    planners = [make_planner(), make_planner()]
    registry = TenantRegistry()
    registry.add("a", planners[0])
    registry.add("b", planners[1])
    return ServingLoop(planners[0], tenants=registry), planners


def _synthesized_tenants(make_planner, monkeypatch):
    """The ``REPRO_TENANTS=2`` tier-1 leg: the loop synthesizes a registry."""
    monkeypatch.setenv("REPRO_TENANTS", "2")
    loop = ServingLoop(make_planner())
    monkeypatch.delenv("REPRO_TENANTS")
    return loop, [loop.planner]


BUILDS = {
    "plain": lambda make_planner, monkeypatch: _plain(make_planner),
    "uniform-tenants": lambda make_planner, monkeypatch: _uniform_tenants(make_planner),
    "two-models": lambda make_planner, monkeypatch: _two_models(make_planner),
    "REPRO_TENANTS=2": _synthesized_tenants,
}


def _step(context, path=()):
    history, objective, user = context
    return NextStepRequest(
        history=history, objective=objective, path_so_far=tuple(path), user_index=user
    )


def _drain(loop) -> None:
    loop._serve_batch(loop.queue.pop_all())


def _ask(loop, request):
    future = loop.serve(request)
    if not future.done():
        _drain(loop)
    return future.result(timeout=0).answer


def run_script(loop, contexts, clock) -> list:
    """Resident answers and replans, mixed: first steps that plan, whole
    sessions followed from their plans, a diverged path, a step queued
    behind its context's pending replan, a ``plan_paths``, and last a
    resident answer slower than everything before it (every maximum it
    feeds moves)."""
    answers = []
    for context in contexts[:3]:
        path = []
        while len(path) < MAX_LENGTH:
            answer = _ask(loop, _step(context, path))
            answers.append(answer)
            if answer is None:
                break
            path.append(answer)
    answers.append(_ask(loop, _step(contexts[0], [contexts[0][1]])))  # diverged: replans
    queued = loop.serve(_step(contexts[3]))
    behind = loop.serve(_step(contexts[3]))  # its context's replan is queued
    assert not behind.done()
    _drain(loop)
    answers += [queued.result(timeout=0).answer, behind.result(timeout=0).answer]
    history, objective, user = contexts[4]
    answers.append(
        _ask(loop, PlanRequest(history=history, objective=objective, user_index=user))
    )
    for context in contexts[:3]:
        answers.append(_ask(loop, _step(context)))  # resident again
    clock.stall(0.2)
    answers.append(_ask(loop, _step(contexts[1])))
    return answers


def _observe(build, make_planner, monkeypatch, contexts, answer_resident=None) -> dict:
    registry = MetricsRegistry()
    previous = set_registry(registry)
    clock = _TickClock()
    monkeypatch.setattr(time, "perf_counter", clock)
    try:
        loop, planners = build(make_planner, monkeypatch)
        if answer_resident is not None:
            loop._answer_resident = types.MethodType(answer_resident, loop)
        answers = run_script(loop, contexts, clock)
        loop.close()
        return {
            "answers": answers,
            "stats": loop.stats(),
            "snapshot": registry.snapshot(),
            "cache_info": [planner.cache_info() for planner in planners],
        }
    finally:
        monkeypatch.undo()
        set_registry(previous)


@pytest.mark.parametrize("build", list(BUILDS), ids=list(BUILDS))
def test_one_pass_counts_what_the_per_field_lane_counted(
    build, make_planner, monkeypatch, serve_contexts
):
    one_pass = _observe(BUILDS[build], make_planner, monkeypatch, serve_contexts)
    per_field = _observe(
        BUILDS[build], make_planner, monkeypatch, serve_contexts, answer_resident_per_field
    )
    assert one_pass["answers"] == per_field["answers"]
    assert one_pass["stats"] == per_field["stats"]
    assert one_pass["snapshot"] == per_field["snapshot"]
    assert one_pass["cache_info"] == per_field["cache_info"]
    # The script did exercise both lanes and several latency buckets.
    stats = one_pass["stats"]
    assert 0 < stats["resident"] < stats["served"]
    if build != "plain":
        assert sum(tenant["served"] for tenant in stats["tenants"].values()) == stats["served"]
    histograms = one_pass["snapshot"]["histograms"]
    latency = next(h for name, h in histograms.items() if name.endswith("latency.latency_ms"))
    assert sum(1 for count in latency["counts"] if count) >= 2
    assert stats["service_latency"]["max_ms"] >= 200.0  # the stalled resident answer


def test_resident_answers_replans_and_snapshots_never_deadlock(make_planner, serve_contexts):
    """Three threads: resident answers (state lock -> cache lock ->
    registry lock), replans drained by the loop's thread, and snapshots
    (``stats()``, and ``cache_info()``, which takes a cache lock, then the
    registry lock).  A lane that held the registry lock while it took a
    cache lock would deadlock against the snapshots here: the threads are
    joined under a timeout, and everything runs over a registry of its own,
    so a deadlocked run fails this test and holds no lock another test needs."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        planner = make_planner()
        loop = ServingLoop(planner, tenants=TenantRegistry.uniform(planner, 2)).start()
        for context in serve_contexts[:4]:
            loop.serve(_step(context)).result(timeout=30)
        stop = threading.Event()
        errors = []

        def guarded(work):
            def run():
                try:
                    work()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    stop.set()

            return run

        def resident():
            for _ in range(3000):
                for context in serve_contexts[:4]:
                    loop.serve(_step(context)).result(timeout=30)

        def replans():
            diverged = 0
            while not stop.is_set():
                context = serve_contexts[4 + diverged % 4]
                loop.serve(_step(context, [diverged % 7 + 1])).result(timeout=30)
                diverged += 1

        def snapshots():
            while not stop.is_set():
                loop.stats()
                planner.cache_info()

        threads = [
            threading.Thread(target=guarded(work), daemon=True)
            for work in (resident, replans, snapshots)
        ]
        for thread in threads:
            thread.start()
        threads[0].join(timeout=30)
        stop.set()
        for thread in threads[1:]:
            thread.join(timeout=5)
        stuck = [work for work, thread in zip(("resident", "replans", "snapshots"), threads)
                 if thread.is_alive()]
        assert stuck == [], f"deadlocked: {stuck}"
        loop.close()
        assert errors == []
        assert loop.stats()["resident"] >= 3000 * 4
    finally:
        set_registry(previous)
