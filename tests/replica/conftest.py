"""Fixtures for the serving-front-end and hot-refit suite.

Two factory flavours, matching the two halves of the refit contract:

* ``make_factory`` — planners over ONE session-scoped fitted backbone
  (cheap; every generation trivially shares its weights).  Used by the
  parity suites: what must hold is that *routing* and *refits* never
  change answers.
* ``fresh_factory`` — a genuinely independent backbone fitted per call
  (deterministic config + seed, so weights are identical across calls).
  Used by the refit suite: a refit must be able to train its standby
  off-path without touching a serving backbone.

``fleet`` builds a started front-end of either transport (``inproc`` — a
:class:`~repro.serve.loop.ServingLoop` over one ``planner_factory()``
planner; ``process`` — a :class:`~repro.distributed.RemoteReplicaSet`,
skipped without ``fork``), so a contract both must hold is written once
(``test_fleet_contract.py``); :func:`refit` refits either.  Only the
process fleet takes ``num_replicas``: ``"process-<n>"`` fixes it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.distributed import CAN_FORK, RemoteReplicaSet
from repro.evaluation.protocol import sample_objectives
from repro.serve import ServingLoop

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


@pytest.fixture(scope="session")
def replica_irn(tiny_split):
    return IRN(**_IRN_KWARGS).fit(tiny_split)


@pytest.fixture(scope="session")
def replica_contexts(tiny_split):
    instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=9)
    return [(list(inst.history), inst.objective, inst.user_index) for inst in instances]


@pytest.fixture()
def make_factory(replica_irn, tiny_split):
    """Factory-of-factories over the shared session backbone."""

    def build(**kwargs):
        kwargs.setdefault("max_length", MAX_LENGTH)

        def factory():
            return BeamSearchPlanner(replica_irn, **kwargs).fit(tiny_split)

        return factory

    return build


@pytest.fixture()
def fresh_factory(tiny_split):
    """A factory fitting an independent (but bit-identical) backbone per call."""

    def build(**kwargs):
        kwargs.setdefault("max_length", MAX_LENGTH)

        def factory():
            backbone = IRN(**_IRN_KWARGS).fit(tiny_split)
            return BeamSearchPlanner(backbone, **kwargs).fit(tiny_split)

        return factory

    return build


class SharedFlag:
    """A flag shared with forked workers (created before they fork) that
    waits by polling.

    ``multiprocessing.Event.set()`` waits for every process sleeping on the
    event to wake, so a worker that exits or is SIGKILLed while it sleeps
    there hangs the setter; a worker that may go while it waits waits on
    this instead."""

    def __init__(self, value: bool = False) -> None:
        self._value = multiprocessing.get_context("fork").RawValue("b", value)

    def set(self) -> None:
        self._value.value = True

    def clear(self) -> None:
        self._value.value = False

    def is_set(self) -> bool:
        return bool(self._value.value)

    def wait(self, timeout: float) -> bool:
        deadline = time.perf_counter() + timeout
        while not self.is_set() and time.perf_counter() < deadline:
            time.sleep(0.002)
        return self.is_set()


def refit(front_end, planner_factory, tenant_factory=None) -> dict:
    """One hot refit of either front-end: a loop is handed the factories
    again, the process fleet calls the ones it was built with."""
    if isinstance(front_end, ServingLoop):
        return front_end.refit(planner_factory, tenant_factory)
    return front_end.refit()


def open_fds() -> "int | None":
    """How many pipes and sockets this process holds — the kinds a fleet
    opens (``None`` where ``/proc`` does not list them).  Other kinds are
    left out: a test's :class:`SharedFlag` maps a shared-memory arena the
    process keeps for its whole life."""
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return None
    held = 0
    for name in names:
        try:
            held += os.readlink(f"/proc/self/fd/{name}").startswith(("pipe:", "socket:"))
        except OSError:  # the descriptor listdir itself used, closed since
            pass
    return held


def _fleet_threads() -> set:
    """Live threads a fleet owns: drain threads, wire readers, the detector."""
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(("repro-serve-drain", "repro-remote-", "repro-failure-"))
    }


@pytest.fixture(params=["inproc", "process"])
def fleet(request):
    """``fleet(planner_factory, **kwargs)`` -> a started front-end over the
    parametrised transport; ``fleet.transport`` names it.  A test may
    re-parametrise it (``indirect``) with ``"process-<n>"`` for a process
    fleet of ``n`` workers; plain ``"process"`` leaves the count to its
    default (``REPRO_REPLICAS`` or 1).  Every fleet built is closed at
    teardown, after which nothing of it may be left running and no file
    descriptor it opened (a worker's socket, its process handle's pipes)
    may be left open."""
    transport, _, workers = request.param.partition("-")
    if transport == "process" and not CAN_FORK:
        pytest.skip("the process transport needs the fork start method")
    threads_before = _fleet_threads()
    fds_before = open_fds()
    built = []

    def build(planner_factory, **kwargs):
        if transport == "process":
            kwargs.setdefault("heartbeat_interval", 0.05)
            if workers:
                kwargs.setdefault("num_replicas", int(workers))
            built.append(RemoteReplicaSet(planner_factory, **kwargs))
        else:
            tenant_factory = kwargs.pop("tenant_factory", None)
            tenants = None if tenant_factory is None else tenant_factory()
            built.append(ServingLoop(planner_factory(), tenants=tenants, **kwargs))
        return built[-1].start()

    build.transport = transport
    yield build
    for front_end in built:
        front_end.close()
    assert multiprocessing.active_children() == []
    assert _fleet_threads() <= threads_before
    fds_after = open_fds()
    if fds_before is not None:
        assert fds_after <= fds_before, f"{fds_after - fds_before} pipe/socket fd(s) left open"


@pytest.fixture()
def sequential_paths(replica_irn, tiny_split, replica_contexts):
    """The sequential single-planner reference trace."""
    from repro.evaluation.protocol import rollout_next_step

    planner = BeamSearchPlanner(replica_irn, max_length=MAX_LENGTH).fit(tiny_split)
    return rollout_next_step(planner, replica_contexts, MAX_LENGTH)
