"""An interpreter budget for one resident answer (``pytest -m perf``).

A step answered from a plan the surface already holds is the commonest op
of a path served one recommendation at a time, and the whole closed unit of
the ``loop_resident`` benchmark workload.  On both front-ends — the
in-process :class:`~repro.serve.loop.ServingLoop` and the forked-worker
fleet's parent-side mirror lane — it is one pass: one normalisation of the
request, one step-cache lookup and, per answer, at most two registry
transactions (the probe's hit count under the plan cache's lock, and the
serve side's counters, histograms and tenant latency in one).

These are *counts* under ``cProfile`` — they repeat exactly, run to run — so
a lane that slides back into per-field registry updates or extra wrappers
fails here, on any host, without a stopwatch.  ``parent_calls`` is what the
commit before the one-pass lane made per answer (``now`` what this code
read when the bound was set; Python 3.11, a 16-item history), and
``parent_updates`` the registry updates it made (one per counter family:
the cache hit, the planner's hit, the admission, the loop's counters, two
histograms and the tenant's latency).  A registry update is an acquisition
of the registry lock, counted by a lock that counts.

To look at one answer yourself, from the repository root (one line)::

    PYTHONPATH=src python -c "from benchmarks.perf.test_serving_budget import
    profile_resident; profile_resident('loop').sort_stats('tottime').print_stats(25)"
"""

from __future__ import annotations

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


@pytest.mark.parametrize(
    "kind, parent_calls, now",
    [
        pytest.param("loop", 92, 50, id="serving-loop"),
        pytest.param("fleet", 80, 43, id="fleet-mirror-lane"),
    ],
)
def test_a_resident_answer_stays_inside_its_call_budget(kind, parent_calls, now):
    calls = profile_resident(kind).total_calls / ANSWERS
    assert calls <= 0.55 * parent_calls, (
        f"{calls:.1f} calls per resident answer on the {kind}: more than 55% of the "
        f"{parent_calls} the per-field lane made (this code read {now} when the bound was set)"
    )


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
        print(f"{kind} tenants={tenants}: {calls:.2f} calls, {updates:.2f} registry updates per answer")
