"""Fixtures for the multi-process serving suite.

Mirrors ``tests/replica/conftest.py`` — the distributed transport's
acceptance contract is that it changes *where* replicas run (processes
instead of threads-in-process), never what they answer, so the suites
share the same tiny fitted backbone, contexts and sequential reference
trace.  The whole directory is skipped where the ``fork`` start method is
unavailable (workers receive their fitted planner by copy-on-write).
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.distributed import CAN_FORK
from repro.evaluation.protocol import sample_objectives

MAX_LENGTH = 5

_IRN_KWARGS = dict(
    embedding_dim=16,
    user_dim=4,
    num_heads=2,
    num_layers=1,
    epochs=1,
    batch_size=32,
    max_sequence_length=50,
    seed=0,
)

#: A short heartbeat keeps the failure-detector tests fast without making
#: suspicion racy on a loaded CI box (budget = misses x interval).
HEARTBEAT_INTERVAL = 0.05

# Platforms without fork (the transport's one hard requirement) skip the
# whole directory at collection; the pure-codec suites still run.
collect_ignore_glob = (
    []
    if CAN_FORK
    else ["test_remote_*.py", "test_failure_detector.py"]
)


#: Parent-side threads a RemoteReplicaSet owns; none may outlive its close().
_FLEET_THREAD_PREFIXES = ("repro-remote-reader-", "repro-failure-detector")


def _fleet_leftovers() -> "list[str]":
    return [f"process {child.name}" for child in multiprocessing.active_children()] + [
        f"thread {thread.name}"
        for thread in threading.enumerate()
        if thread.name.startswith(_FLEET_THREAD_PREFIXES)
    ]


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail any test in this directory that leaves a worker process, a
    reader thread or a failure detector behind (a fleet that raised from
    its constructor, or one closed while its workers were building a
    refit)."""
    yield
    deadline = time.perf_counter() + 2.0  # a SIGKILLed child reaps asynchronously
    while _fleet_leftovers() and time.perf_counter() < deadline:
        time.sleep(0.01)
    leftovers = _fleet_leftovers()
    for child in multiprocessing.active_children():  # do not poison later tests
        child.kill()
        child.join(timeout=5.0)
    assert not leftovers, f"test left fleet resources behind: {leftovers}"


@pytest.fixture(scope="session")
def remote_irn(tiny_split):
    return IRN(**_IRN_KWARGS).fit(tiny_split)


@pytest.fixture(scope="session")
def remote_contexts(tiny_split):
    instances = sample_objectives(
        tiny_split, min_objective_interactions=2, max_instances=9
    )
    return [(list(inst.history), inst.objective, inst.user_index) for inst in instances]


@pytest.fixture()
def make_factory(remote_irn, tiny_split):
    """Factory-of-factories over the shared session backbone (cheap)."""

    def build(**kwargs):
        kwargs.setdefault("max_length", MAX_LENGTH)

        def factory():
            return BeamSearchPlanner(remote_irn, **kwargs).fit(tiny_split)

        return factory

    return build


@pytest.fixture()
def sequential_paths(remote_irn, tiny_split, remote_contexts):
    """The sequential single-planner reference trace."""
    from repro.evaluation.protocol import rollout_next_step

    planner = BeamSearchPlanner(remote_irn, max_length=MAX_LENGTH).fit(tiny_split)
    return rollout_next_step(planner, remote_contexts, MAX_LENGTH)
