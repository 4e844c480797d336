"""A fleet build that fails leaves nothing behind.

A worker that dies before its HELLO (here: ``tenant_factory`` raising
inside the forked child) must fail the build at once — the reader saw EOF
immediately, waiting out ``HELLO_TIMEOUT`` helps nobody — and a
constructor that raises must shut down every worker it had already
spawned: the caller holds no object to ``close()``.  A refit whose build
raises in a worker aborts at once too, on every worker, and the fleet
keeps serving generation 1 with the same processes.  The directory's
``no_leaked_workers`` fixture checks the leftovers after each test.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.distributed import RemoteReplicaSet
from repro.serve.request import ServeRequest
from repro.tenant import TenantRegistry
from repro.utils.exceptions import ServingError

from tests.distributed.conftest import HEARTBEAT_INTERVAL

#: Far below HELLO_TIMEOUT (120 s), far above a fork + EOF round-trip.
FAIL_FAST_SECONDS = 20.0


def _failing_tenant_factory(make_factory, fail_from_call: int):
    """A tenant factory whose ``fail_from_call``-th and later calls raise.

    It runs inside the forked children, so the call count lives in shared
    memory the forks inherit."""
    calls = multiprocessing.get_context("fork").Value("i", 0)
    planner_factory = make_factory()

    def factory():
        with calls.get_lock():
            calls.value += 1
            call = calls.value
        if call >= fail_from_call:
            raise RuntimeError(f"tenant build {call} failed")
        registry = TenantRegistry()
        registry.add("irs", planner_factory())
        return registry

    return factory


class TestStartupFailure:
    def test_worker_dying_before_hello_fails_the_constructor_at_once(self, make_factory):
        started = time.perf_counter()
        with pytest.raises(ServingError, match="died before sending HELLO"):
            RemoteReplicaSet(
                make_factory(),
                num_replicas=2,
                heartbeat_interval=HEARTBEAT_INTERVAL,
                # the first worker comes up, the second dies in start-up
                tenant_factory=_failing_tenant_factory(make_factory, fail_from_call=2),
            )
        assert time.perf_counter() - started < FAIL_FAST_SECONDS
        # Nothing to close(): the constructor shut the survivor down itself.
        assert multiprocessing.active_children() == []

    def test_failed_refit_build_aborts_at_once_and_serving_continues(
        self, make_factory, remote_contexts
    ):
        history, objective, user = remote_contexts[0]
        with RemoteReplicaSet(
            make_factory(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            # generation 1 takes calls 1-2; the refit's second build raises
            tenant_factory=_failing_tenant_factory(make_factory, fail_from_call=4),
        ) as remote_set:
            serving = {replica.worker.pid for replica in remote_set.active_replicas()}
            started = time.perf_counter()
            with pytest.raises(ServingError, match="tenant build 4 failed"):
                remote_set.refit()
            assert time.perf_counter() - started < FAIL_FAST_SECONDS
            # Both workers live on at generation 1; nothing else was forked.
            assert {child.pid for child in multiprocessing.active_children()} == serving
            assert remote_set.fit_generation == 1
            assert remote_set.stats()["refits"] == []
            request = ServeRequest.create(
                "plan_paths", history, objective, user_index=user, tenant="irs"
            )
            assert remote_set.enqueue(request).result(timeout=30) is not None
            assert request.served_generation == 1
