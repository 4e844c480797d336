"""Unit tests of the tail-latency-aware dispatcher and replica load tracking.

These drive :class:`~repro.replica.dispatch.Dispatcher` and
:class:`~repro.replica.replica.Replica` through their public accounting API
with stub loops — no planners, no threads — so the routing rules (cold
round-robin, warm least-loaded, session affinity, health filtering) are
asserted deterministically.
"""

from __future__ import annotations

import pytest

from repro.replica.dispatch import Dispatcher
from repro.replica.replica import MIN_WARM_SAMPLES, Replica
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ServingError


class _StubLoop:
    def current_depth(self) -> int:
        return 0


def make_replica(index: int, generation: int = 1) -> Replica:
    return Replica(index, planner=object(), loop=_StubLoop(), generation=generation)


def warm_up(replica: Replica, latency_s: float, samples: int = MIN_WARM_SAMPLES) -> None:
    """Feed ``samples`` completed requests at ``latency_s`` each."""
    for _ in range(samples):
        request = ServeRequest.create("next_step", [1], 2)
        replica.on_dispatch()
        request.enqueued_at = 100.0
        request.completed_at = 100.0 + latency_s
        replica.on_complete(request)


def next_step_request(history=(1, 2), objective=3) -> ServeRequest:
    return ServeRequest.create("next_step", history, objective)


def plan_request(history=(1, 2), objective=3) -> ServeRequest:
    return ServeRequest.create("plan_paths", history, objective)


class TestColdStart:
    def test_cold_replicas_round_robin(self):
        replicas = [make_replica(i) for i in range(3)]
        dispatcher = Dispatcher(replicas)
        # Stateless requests rotate strictly while every replica is cold.
        picks = [dispatcher.pick(plan_request()).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        assert dispatcher.stats()["picks"]["round_robin"] == 6
        assert dispatcher.stats()["picks"]["least_loaded"] == 0



class TestLeastLoaded:
    def test_routes_around_the_deep_replica(self):
        """A replica carrying a backlog loses to an idle one."""
        busy, idle = make_replica(0), make_replica(1)
        warm_up(busy, latency_s=0.005)
        warm_up(idle, latency_s=0.005)
        for _ in range(10):  # backlog: dispatched, never completed
            busy.on_dispatch()
        dispatcher = Dispatcher([busy, idle])
        assert dispatcher.pick(plan_request()).index == 1
        assert dispatcher.stats()["picks"]["least_loaded"] == 1

    def test_routes_around_the_slow_replica(self):
        """At equal depth, the replica with the worse recent p95 loses."""
        slow, fast = make_replica(0), make_replica(1)
        warm_up(slow, latency_s=0.5)
        warm_up(fast, latency_s=0.005)
        dispatcher = Dispatcher([slow, fast])
        assert slow.recent_p95_ms() > fast.recent_p95_ms()
        assert dispatcher.pick(plan_request()).index == 1

    def test_dispatch_failed_undoes_inflight_accounting(self):
        replica = make_replica(0)
        replica.on_dispatch()
        replica.on_dispatch_failed()
        assert replica.stats()["inflight"] == 0
        assert replica.stats()["dispatched"] == 0


class TestAffinity:
    def test_next_step_context_sticks_to_its_replica(self):
        replicas = [make_replica(i) for i in range(3)]
        dispatcher = Dispatcher(replicas)
        first = dispatcher.pick(next_step_request(history=(7, 8), objective=9))
        for _ in range(5):
            again = dispatcher.pick(next_step_request(history=(7, 8), objective=9))
            assert again is first
        assert dispatcher.stats()["picks"]["affinity"] == 5
        assert dispatcher.stats()["sessions_pinned"] == 1

    def test_plan_paths_requests_are_not_pinned(self):
        replicas = [make_replica(i) for i in range(2)]
        dispatcher = Dispatcher(replicas)
        picks = {dispatcher.pick(plan_request()).index for _ in range(4)}
        assert picks == {0, 1}
        assert dispatcher.stats()["sessions_pinned"] == 0

    def test_reset_clears_affinity(self):
        replicas = [make_replica(i) for i in range(2)]
        dispatcher = Dispatcher(replicas)
        dispatcher.pick(next_step_request())
        assert dispatcher.stats()["sessions_pinned"] == 1
        dispatcher.reset([make_replica(10), make_replica(11)])
        assert dispatcher.stats()["sessions_pinned"] == 0
        assert dispatcher.pick(next_step_request()).index in (10, 11)

    def test_forget_drops_one_replicas_sessions(self):
        replicas = [make_replica(i) for i in range(2)]
        dispatcher = Dispatcher(replicas)
        owner = dispatcher.pick(next_step_request())
        dispatcher.forget(owner)
        assert dispatcher.stats()["sessions_pinned"] == 0

    def test_unhealthy_affinity_owner_is_reassigned(self):
        replicas = [make_replica(i) for i in range(2)]
        dispatcher = Dispatcher(replicas)
        owner = dispatcher.pick(next_step_request())
        owner.mark_unhealthy()
        replacement = dispatcher.pick(next_step_request())
        assert replacement is not owner
        assert replacement.healthy

    def test_unhealthy_owner_eviction_is_counted_and_unpins(self):
        """Failure-detector eviction shows up in the dispatch accounting:
        the session unpins from the dead owner, counts as evicted, and the
        pin table reflects the re-home — not a stale owner entry."""
        replicas = [make_replica(i) for i in range(2)]
        dispatcher = Dispatcher(replicas)
        owner = dispatcher.pick(next_step_request())
        assert dispatcher.stats()["sessions_evicted"] == 0
        owner.mark_unhealthy()
        replacement = dispatcher.pick(next_step_request())
        stats = dispatcher.stats()
        assert stats["sessions_evicted"] == 1
        assert stats["sessions_pinned"] == 1  # re-pinned to the replacement
        # The re-homed replica owns the session from here on (replan once,
        # then affinity): subsequent picks hit the affinity path again.
        assert dispatcher.pick(next_step_request()) is replacement
        assert dispatcher.stats()["picks"]["affinity"] == 1
        assert dispatcher.stats()["sessions_evicted"] == 1

    def test_recovered_owner_does_not_reclaim_an_evicted_session(self):
        """Eviction is permanent per session: once re-homed, the session
        stays with its replacement even after the old owner recovers —
        the replacement replanned the context and owns its plan state."""
        replicas = [make_replica(i) for i in range(2)]
        dispatcher = Dispatcher(replicas)
        owner = dispatcher.pick(next_step_request())
        owner.mark_unhealthy()
        replacement = dispatcher.pick(next_step_request())
        owner.mark_healthy()
        assert dispatcher.pick(next_step_request()) is replacement
        assert dispatcher.stats()["sessions_evicted"] == 1

    def test_owner_removed_from_fleet_is_evicted_even_while_healthy(self):
        """A retired replica (healthy flag still up, but no longer in the
        replica list) must not keep owning sessions."""
        keep, retire = make_replica(0), make_replica(1)
        dispatcher = Dispatcher([keep, retire])
        request = next_step_request()
        owner = dispatcher.pick(request)
        survivor = keep if owner is retire else retire
        dispatcher.reset([survivor])
        # reset cleared affinity wholesale; re-pin then shrink via direct
        # list surgery to isolate the owner-not-in-fleet branch.
        owner2 = dispatcher.pick(next_step_request((9, 9), 4))
        assert owner2 is survivor
        with dispatcher._lock:
            dispatcher._replicas = [make_replica(5)]
        picked = dispatcher.pick(next_step_request((9, 9), 4))
        assert picked is not survivor
        assert dispatcher.stats()["sessions_evicted"] >= 1


class TestHealth:
    def test_unhealthy_replicas_skipped(self):
        replicas = [make_replica(i) for i in range(3)]
        replicas[0].mark_unhealthy()
        dispatcher = Dispatcher(replicas)
        picks = {dispatcher.pick(plan_request()).index for _ in range(6)}
        assert 0 not in picks
        replicas[0].mark_healthy()
        picks = {dispatcher.pick(plan_request()).index for _ in range(6)}
        assert 0 in picks

    def test_no_healthy_replica_raises(self):
        replicas = [make_replica(0)]
        replicas[0].mark_unhealthy()
        dispatcher = Dispatcher(replicas)
        with pytest.raises(ServingError, match="no healthy replica"):
            dispatcher.pick(plan_request())
