"""Contracts every fleet holds, whatever its members are made of.

Each test runs on both transports through the ``fleet`` fixture
(``inproc`` — :class:`~repro.replica.ReplicaSet`, one member; ``process``
— :class:`~repro.distributed.RemoteReplicaSet`, once at two workers and
once at its defaulted count, ``REPRO_REPLICAS`` or 1, so the CI leg that
sets it to 2 runs both process cases at two workers): the two classes
share one core, so what is promised about dispatch, admission, refits and
shutdown is written once and must hold for both (the per-transport parity
suites, ``test_replica_parity.py`` here and ``tests/distributed``, predate
the fixture).  The fixture itself asserts that nothing a fleet started
(drain threads, reader threads, the failure detector, worker processes)
outlives its ``close()``.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.serve.api import PlanRequest
from repro.serve.request import ServeRequest
from repro.utils.exceptions import DeadlineExceeded, QueueFullError, ServingError

pytestmark = pytest.mark.parametrize("fleet", ["inproc", "process-2", "process"], indirect=True)


def _plan(history, objective, user, **envelope):
    return ServeRequest.create("plan_paths", history, objective, user_index=user, **envelope)


class TestFleetParity:
    def test_typed_and_envelope_submission_agree(self, fleet, make_factory, replica_contexts):
        reference = make_factory()()
        front_end = fleet(make_factory())
        for history, objective, user in replica_contexts[:4]:
            expected = reference.plan_path(history, objective, user_index=user)
            envelope = _plan(history, objective, user)
            assert front_end.enqueue(envelope).result(timeout=30) == expected
            response = front_end.serve(
                PlanRequest(history=history, objective=objective, user_index=user)
            ).result(timeout=30)
            assert response.answer == expected
            assert response.served_generation == envelope.served_generation == 1
            assert response.replica_index is not None


class TestFleetDeadline:
    def test_expired_request_is_refused_by_the_fleet_and_counted(
        self, fleet, make_factory, replica_contexts
    ):
        front_end = fleet(make_factory())
        late = _plan(*replica_contexts[0], deadline=time.perf_counter() - 0.5)
        with pytest.raises(QueueFullError, match="deadline expired") as refusal:
            front_end.enqueue(late)
        assert refusal.type is DeadlineExceeded
        live = _plan(*replica_contexts[0], deadline=time.perf_counter() + 60.0)
        assert front_end.enqueue(live).result(timeout=30) is not None
        stats = front_end.stats()
        # The refusal happened before any member was picked: it shows in the
        # fleet total as expired (not rejected), on no member's controller
        # and in no dispatch count.
        assert stats["admission"]["expired"] == 1
        assert stats["admission"]["rejected"] == 0
        assert sum(entry["expired"] for entry in stats["admission"]["per_replica"]) == 0
        assert stats["admission"]["admitted"] == stats["served"] == 1
        assert sum(replica["dispatched"] for replica in stats["replicas"]) == 1

    def test_a_member_refusal_sums_into_the_fleet_expired_count(
        self, fleet, make_factory, replica_contexts
    ):
        front_end = fleet(make_factory())
        replica = front_end.active_replicas()[0]
        # Past the fleet's own check (straight to the member), as a request
        # whose budget ran out between that check and the hand-over would be.
        late = _plan(*replica_contexts[0], deadline=time.perf_counter() - 0.25)
        with pytest.raises(DeadlineExceeded):
            replica.accept(late)  # an in-process member refuses here ...
            late.future.result(timeout=30)  # ... a worker through the future
        admission = front_end.stats()["admission"]
        assert (admission["expired"], admission["rejected"]) == (1, 0)
        assert sum(member["expired"] for member in admission["per_replica"]) == 1
        assert sum(member["rejected"] for member in admission["per_replica"]) == 0


class TestFleetRefit:
    def test_refit_flips_archives_and_reports(self, fleet, make_factory, replica_contexts):
        front_end = fleet(make_factory())
        before = [_plan(*context) for context in replica_contexts]
        for request in before:
            front_end.enqueue(request)
        for request in before:
            request.future.result(timeout=30)
        report = front_end.refit()
        after = _plan(*replica_contexts[0])
        front_end.enqueue(after).result(timeout=30)
        stats = front_end.stats()
        assert {request.served_generation for request in before} == {1}
        assert after.served_generation == 2
        assert (report["generation_from"], report["generation_to"]) == (1, 2)
        members = front_end.num_replicas
        assert report["num_replicas"] == stats["num_replicas"] == members
        assert report["retired_served"] == len(before)
        assert report["inflight_at_flip"] == 0
        assert front_end.fit_generation == stats["generation"] == 2
        assert stats["refits"] == [report]
        assert stats["retired_replicas"] == members
        assert len(front_end.archived_stats()) == members
        assert {replica["generation"] for replica in stats["replicas"]} == {2}

    def test_flip_refused_when_set_closes_during_training(self, fleet, make_factory):
        """close() racing the training phase must not let the flip install a
        live standby into a closed set — and the refused standby, which
        close() cannot reach, must be shut down by the coordinator."""
        base_factory = make_factory()
        box: dict = {}
        calls = {"count": 0}

        def closing_factory():
            calls["count"] += 1
            if "set" in box:  # the refit's standby build: close mid-train
                box["set"].close()
            return base_factory()

        front_end = fleet(closing_factory)
        box["set"] = front_end
        with pytest.raises(ServingError, match="closed"):
            front_end.refit()
        assert calls["count"] > 1  # the standby build really ran
        # No generation landed, no refit recorded — and (the fixture's
        # teardown re-checks threads) no standby worker survived.
        assert front_end.fit_generation == 1
        assert front_end.stats()["refits"] == []
        assert multiprocessing.active_children() == []
