"""An interpreter budget for one resident answer (``pytest -m perf``).

A step answered from a plan the surface already holds is the commonest op
of a path served one recommendation at a time, and the whole closed unit of
the ``loop_resident`` benchmark workload.  On both front-ends — the
in-process :class:`~repro.serve.loop.ServingLoop` and the forked-worker
fleet's parent-side mirror lane — it is one pass: one normalisation of the
request, one step-cache lookup and, per answer, at most two registry
transactions (the probe's hit count under the plan cache's lock, and the
serve side's counters, histograms and tenant latency in one).

The answer is known before ``serve()`` returns, so its future is born
resolved (``repro.serve.request``): no ``Future.__init__``, so no
``threading.Condition`` and no ``RLock``, and no ``set_result`` notify.

These are *counts* under ``cProfile`` — they repeat exactly, run to run — so
a lane that slides back into per-field registry updates, extra wrappers or
a future built to be notified fails here, on any host, without a stopwatch.
``parent_calls`` is what the lane made per answer with a plain ``Future``
per envelope, and ``now`` what this code read when the bound was set
(Python 3.11, a 16-item history); the bound is ``now`` plus one call, room
for an interpreter whose profiler counts one C call differently.
``parent_updates`` is the registry updates the per-field lane made (one per
counter family: the cache hit, the planner's hit, the admission, the
loop's counters, two histograms and the tenant's latency).  A registry
update is an acquisition of the registry lock, counted by a lock that
counts.

To look at one answer yourself, from the repository root (one line)::

    PYTHONPATH=src python -c "from benchmarks.perf.test_serving_budget import
    profile_resident; profile_resident('loop').sort_stats('tottime').print_stats(25)"
"""

from __future__ import annotations

import concurrent.futures
import cProfile
import os
import pstats
import threading
from functools import lru_cache

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.data.preprocessing import build_corpus
from repro.data.splitting import split_corpus
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.obs.registry import MetricsRegistry, set_registry
from repro.serve import NextStepRequest, ServingLoop
from repro.serve import request as serve_request

pytestmark = pytest.mark.perf

#: answers profiled per front-end (the per-answer figures are exact means)
ANSWERS = 200
HISTORY = tuple(range(1, 17))
OBJECTIVE = 40


class _CountingLock:
    """The registry's re-entrant lock, counting its acquisitions: every
    registry update (a group record, a histogram observation, a
    transaction) takes it once, nested or not."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class _CountingThreading:
    """Stands in for the ``threading`` module of the modules that build
    futures, counting the ``Condition`` objects they construct."""

    def __init__(self) -> None:
        self.conditions = 0

    def Condition(self, *args, **kwargs):
        self.conditions += 1
        return threading.Condition(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(threading, name)


@lru_cache(maxsize=1)
def _split():
    dataset = generate_synthetic_dataset(
        SyntheticConfig(
            name="budget",
            num_users=30,
            num_items=50,
            num_genres=5,
            min_sequence_length=12,
            max_sequence_length=20,
            seed=0,
        )
    )
    return split_corpus(
        build_corpus(dataset, min_interactions=3),
        l_min=6,
        l_max=12,
        validation_fraction=0.1,
        seed=0,
    )


@lru_cache(maxsize=1)
def _irn():
    return IRN(
        embedding_dim=16,
        user_dim=4,
        num_heads=2,
        num_layers=1,
        epochs=1,
        max_sequence_length=50,
        seed=0,
    ).fit(_split())


def _planner() -> BeamSearchPlanner:
    return BeamSearchPlanner(_irn(), max_length=10).fit(_split())


def _front_end(kind: str, tenants: int):
    """The front-end at the program's defaults: ``REPRO_*`` variables (a CI
    leg's ``REPRO_TENANTS=2``, say) are set aside while it is built, as the
    e2e benchmark sets them aside, so ``tenants`` alone decides the lane."""
    saved = {name: os.environ.pop(name) for name in list(os.environ) if name.startswith("REPRO_")}
    try:
        if kind == "loop":
            from repro.tenant.registry import TenantRegistry

            planner = _planner()
            registry = None if tenants == 1 else TenantRegistry.uniform(planner, tenants)
            return ServingLoop(planner, tenants=registry)
        from repro.distributed import RemoteReplicaSet

        return RemoteReplicaSet(_planner, num_replicas=1)
    finally:
        os.environ.update(saved)


def profile_resident(kind: str = "loop", tenants: int = 1, answers: int = ANSWERS) -> pstats.Stats:
    """cProfile of ``answers`` resident ``serve(NextStepRequest).result()``
    calls on a warm front-end: ``kind`` is ``"loop"`` (a
    :class:`ServingLoop`, ``tenants`` > 1 serving a uniform registry) or
    ``"fleet"`` (a one-worker fleet answering from its parent's mirror)."""
    request = NextStepRequest(history=HISTORY, objective=OBJECTIVE, path_so_far=())
    with _front_end(kind, tenants) as front_end:
        front_end.serve(request).result(timeout=60)  # plans, and the plan is resident
        front_end.serve(request).result(timeout=60)
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(answers):
            front_end.serve(request).result()
        profile.disable()
        if kind == "fleet":
            assert front_end.stats()["transport"]["parent_answered"] == answers + 1
        else:
            assert front_end.stats()["resident"] == answers + 1
    return pstats.Stats(profile)


def registry_updates(kind: str = "loop", tenants: int = 1, answers: int = ANSWERS) -> float:
    """Registry-lock acquisitions per resident answer, on a front-end built
    over a fresh registry whose lock counts them."""
    registry = MetricsRegistry()
    lock = registry._lock = _CountingLock()
    previous = set_registry(registry)
    try:
        request = NextStepRequest(history=HISTORY, objective=OBJECTIVE, path_so_far=())
        with _front_end(kind, tenants) as front_end:
            front_end.serve(request).result(timeout=60)
            front_end.serve(request).result(timeout=60)
            before = lock.acquisitions
            for _ in range(answers):
                front_end.serve(request).result()
            updates = lock.acquisitions - before
    finally:
        set_registry(previous)
    return updates / answers


def conditions_built(kind: str = "loop", tenants: int = 1, answers: int = ANSWERS) -> int:
    """``threading.Condition`` objects built by ``answers`` resident answers
    on a warm front-end: ``concurrent.futures`` (``Future.__init__``) and
    the born-resolved future's module each see a counting ``threading``."""
    counting = _CountingThreading()
    modules = (concurrent.futures._base, serve_request)
    request = NextStepRequest(history=HISTORY, objective=OBJECTIVE, path_so_far=())
    with _front_end(kind, tenants) as front_end:
        front_end.serve(request).result(timeout=60)
        front_end.serve(request).result(timeout=60)
        for module in modules:
            module.threading = counting
        try:
            for _ in range(answers):
                front_end.serve(request).result()
        finally:
            for module in modules:
                module.threading = threading
    return counting.conditions


@pytest.mark.parametrize(
    "kind, parent_calls, now",
    [
        pytest.param("loop", 50, 34, id="serving-loop"),
        pytest.param("fleet", 43, 27, id="fleet-mirror-lane"),
    ],
)
def test_a_resident_answer_stays_inside_its_call_budget(kind, parent_calls, now):
    calls = profile_resident(kind).total_calls / ANSWERS
    assert calls <= now + 1, (
        f"{calls:.1f} calls per resident answer on the {kind}: more than the {now + 1} "
        f"budgeted (this code read {now}; with a Future per envelope it made {parent_calls})"
    )


@pytest.mark.parametrize(
    "kind, tenants",
    [
        pytest.param("loop", 1, id="serving-loop"),
        pytest.param("loop", 2, id="serving-loop-two-tenants"),
        pytest.param("fleet", 1, id="fleet-mirror-lane"),
    ],
)
def test_a_resident_answer_builds_no_condition(kind, tenants):
    """Its future is born resolved: nothing to wait on, nothing to notify."""
    built = conditions_built(kind, tenants)
    assert built == 0, f"{built} threading.Condition(s) built by {ANSWERS} resident answers"


@pytest.mark.parametrize(
    "kind, tenants, parent_updates",
    [
        pytest.param("loop", 1, 6, id="serving-loop"),
        pytest.param("loop", 2, 7, id="serving-loop-two-tenants"),
        pytest.param("fleet", 1, 2, id="fleet-mirror-lane"),
    ],
)
def test_a_resident_answer_is_at_most_two_registry_updates(kind, tenants, parent_updates):
    """The step cache counts its hit (and the planner's) in one update under
    its own lock; everything the serve side counts is one more."""
    updates = registry_updates(kind, tenants)
    assert updates <= 2, (
        f"{updates:.2f} registry updates per resident answer on the {kind} "
        f"(the per-field lane made {parent_updates})"
    )


if __name__ == "__main__":  # pragma: no cover - a manual probe
    for kind, tenants in (("loop", 1), ("loop", 2), ("fleet", 1)):
        calls = profile_resident(kind, tenants).total_calls / ANSWERS
        updates = registry_updates(kind, tenants)
        conditions = conditions_built(kind, tenants)
        print(
            f"{kind} tenants={tenants}: {calls:.2f} calls, {updates:.2f} registry updates per "
            f"answer, {conditions} Condition(s) over {ANSWERS} answers"
        )
