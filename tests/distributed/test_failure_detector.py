"""Chaos coverage of the failure detector and zero-drop re-dispatch.

The PR's chaos invariant: kill one worker mid-stream and every admitted
request still resolves (re-dispatched to survivors, duplicate late
answers discarded); the victim flips unhealthy within the
missed-heartbeat budget; a paused-then-resumed worker rejoins dispatch
only after its probation beats.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.config import resolve_heartbeat_misses
from repro.distributed import RemoteReplicaSet, ReplicaWorker
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


def _process_state(pid: int) -> "str | None":
    """The state letter ``/proc/<pid>/stat`` shows (``Z``: a zombie), or
    ``None`` once no such process exists."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return None


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

    def test_a_killed_worker_is_reaped_before_close(self, make_factory, remote_contexts):
        """The reader that meets a dead worker's EOF joins its process: no
        zombie waits for ``close()`` (or a refit) to be reaped."""
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            victim = remote_set.active_replicas()[0]
            pid = victim.worker.pid
            if _process_state(pid) is None:
                pytest.skip("/proc does not list this platform's processes")
            os.kill(pid, signal.SIGKILL)
            assert _wait(lambda: victim.dead)
            history, objective, user = remote_contexts[0]
            for _ in range(4):
                assert (
                    remote_set.enqueue(
                        ServeRequest.create("plan_paths", history, objective, user_index=user)
                    ).result(timeout=30)
                    is not None
                )
            assert _wait(lambda: _process_state(pid) != "Z", timeout=5.0), (
                f"worker pid {pid} is still a zombie"
            )

    def test_concurrent_joins_reap_a_killed_worker_once(self):
        """The reader that met a worker's EOF and a retiring thread may join
        one handle at once: neither raises, and the process is released."""
        process = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
        process.start()
        parent_sock, child_sock = socket.socketpair()
        child_sock.close()
        handle = ReplicaWorker(process, parent_sock, index=0, generation=1)
        errors = []

        def join():
            try:
                handle.join(timeout=5.0)
                handle.alive()
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            handle.kill()
            joiners = [threading.Thread(target=join) for _ in range(8)]
            for joiner in joiners:
                joiner.start()
            for joiner in joiners:
                joiner.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
            handle.close()
        assert not any(joiner.is_alive() for joiner in joiners)
        assert errors == []
        assert not handle.alive()
        assert _process_state(handle.pid) is None

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
