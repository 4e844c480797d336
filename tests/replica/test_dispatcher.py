"""Unit tests of the dispatcher.

These drive :class:`~repro.replica.dispatch.Dispatcher` over stub members —
``index``, ``healthy`` and ``score()`` over ``pending`` / ``dispatched``,
the surface a worker's :class:`~repro.distributed.remote.RemoteReplica`
offers it, scored the way that handle scores itself — with no planners, no
threads and no processes, so the routing rules (least-loaded with an even
rotation at zero load, session affinity, health filtering) are asserted
deterministically.
"""

from __future__ import annotations

import pytest

from repro.replica.dispatch import Dispatcher
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ServingError


class _Member:
    """A dispatch member with set load: requests on its wire (``pending``)
    and picks taken so far (``dispatched``)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.healthy = True
        self.pending = 0
        self.dispatched = 0

    def score(self) -> tuple:
        return (self.pending, self.dispatched, self.index)


def make_replica(index: int) -> _Member:
    return _Member(index)


def pick(dispatcher: Dispatcher, request: ServeRequest) -> _Member:
    """One pick, accepted the way a worker's handle accepts it."""
    member = dispatcher.pick(request)
    member.dispatched += 1
    return member


def next_step_request(history=(1, 2), objective=3) -> ServeRequest:
    return ServeRequest.create("next_step", history, objective)


def plan_request(history=(1, 2), objective=3) -> ServeRequest:
    return ServeRequest.create("plan_paths", history, objective)


class TestZeroLoad:
    def test_idle_replicas_rotate_evenly(self):
        replicas = [make_replica(i) for i in range(3)]
        dispatcher = Dispatcher(replicas)
        # With nothing on any wire, the fewest picks so far wins: a rotation.
        picks = [pick(dispatcher, plan_request()).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        assert dispatcher.stats()["picks"] == {"affinity": 0, "least_loaded": 6}

    def test_a_replica_that_joins_late_catches_up_first(self):
        replicas = [make_replica(i) for i in range(2)]
        replicas[0].dispatched = 3
        dispatcher = Dispatcher(replicas)
        assert [pick(dispatcher, plan_request()).index for _ in range(4)] == [1, 1, 1, 0]


class TestLeastLoaded:
    def test_routes_around_the_deep_replica(self):
        """A replica carrying a backlog loses to an idle one from the very
        first pick, however few picks either has taken."""
        busy, idle = make_replica(0), make_replica(1)
        busy.pending = 1  # a request on its wire, not answered yet
        idle.dispatched = 50
        dispatcher = Dispatcher([busy, idle])
        assert [pick(dispatcher, plan_request()).index for _ in range(3)] == [1, 1, 1]
        assert dispatcher.stats()["picks"]["least_loaded"] == 3

    def test_pending_outranks_picks_so_far(self):
        replicas = [make_replica(i) for i in range(3)]
        replicas[0].pending, replicas[1].pending, replicas[2].pending = 2, 1, 1
        replicas[1].dispatched = 4
        assert Dispatcher(replicas).pick(plan_request()).index == 2

    def test_ties_go_to_the_lower_index(self):
        replicas = [make_replica(i) for i in (2, 0, 1)]
        for replica in replicas:
            replica.pending, replica.dispatched = 1, 7
        assert Dispatcher(replicas).pick(plan_request()).index == 0


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
        picks = {pick(dispatcher, plan_request()).index for _ in range(4)}
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
        owner.healthy = False
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
        owner.healthy = False
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
        owner.healthy = False
        replacement = dispatcher.pick(next_step_request())
        owner.healthy = True
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
        replicas[0].healthy = False
        dispatcher = Dispatcher(replicas)
        picks = [pick(dispatcher, plan_request()).index for _ in range(6)]
        assert picks == [1, 2, 1, 2, 1, 2]
        # Back in the pool, the least-picked replica takes the next ones.
        replicas[0].healthy = True
        picks = [pick(dispatcher, plan_request()).index for _ in range(3)]
        assert picks == [0, 0, 0]

    def test_no_healthy_replica_raises(self):
        replicas = [make_replica(0)]
        replicas[0].healthy = False
        dispatcher = Dispatcher(replicas)
        with pytest.raises(ServingError, match="no healthy replica"):
            dispatcher.pick(plan_request())
