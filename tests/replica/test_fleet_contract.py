"""Contracts both serving front-ends hold.

Each test runs on both transports through the ``fleet`` fixture
(``inproc`` — a :class:`~repro.serve.loop.ServingLoop`; ``process`` — a
:class:`~repro.distributed.RemoteReplicaSet`, once at two workers and once
at its defaulted count, ``REPRO_REPLICAS`` or 1, so the CI leg that sets it
to 2 runs both process cases at two workers): what is promised about
submission, admission, refits and shutdown is written once and must hold
for both; the sections only a fleet has (per-worker admission, the refit
history, the workers that refit in place) are checked on the process
cases.  Factory-side gates use objects created before the fleet forks: a
process fleet calls its factory inside every worker at a refit.  The fixture itself
asserts that nothing a front-end started (drain threads, reader threads,
the failure detector, worker processes) outlives its ``close()``.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.serve.api import PlanRequest
from repro.serve.request import ServeRequest
from repro.utils.exceptions import DeadlineExceeded, QueueFullError, ServingError

from tests.replica.conftest import SharedFlag, open_fds, refit

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
            # a worker index names who answered; a loop has no workers
            assert (response.replica_index is None) == (fleet.transport == "inproc")


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
        # Refused at admission: counted as expired (not rejected), never
        # admitted, and — on the fleet — on no worker's controller and in
        # no dispatch count.
        assert stats["admission"]["expired"] == 1
        assert stats["admission"]["rejected"] == 0
        assert stats["admission"]["admitted"] == stats["served"] == 1
        if fleet.transport == "process":
            assert sum(entry["expired"] for entry in stats["admission"]["per_replica"]) == 0
            assert sum(replica["dispatched"] for replica in stats["replicas"]) == 1

    def test_a_member_refusal_sums_into_the_fleet_expired_count(
        self, fleet, make_factory, replica_contexts
    ):
        front_end = fleet(make_factory())
        # Past the front-end's own check, as a request whose budget ran out
        # between that check and the drain would be: straight to a worker,
        # or straight into the loop's queue.
        if fleet.transport == "process":
            hand_over = front_end.active_replicas()[0].accept
        else:
            hand_over = front_end.queue.put
        late = _plan(*replica_contexts[0], deadline=time.perf_counter() - 0.25)
        with pytest.raises(DeadlineExceeded):
            hand_over(late)
            late.future.result(timeout=30)
        admission = front_end.stats()["admission"]
        assert (admission["expired"], admission["rejected"]) == (1, 0)
        if fleet.transport == "process":
            assert sum(member["expired"] for member in admission["per_replica"]) == 1
            assert sum(member["rejected"] for member in admission["per_replica"]) == 0


class TestFleetRefit:
    def test_refit_flips_in_place_and_reports(self, fleet, make_factory, replica_contexts):
        factory = make_factory()
        front_end = fleet(factory)
        if fleet.transport == "process":
            pids = [member.worker.pid for member in front_end.active_replicas()]
        before = [_plan(*context) for context in replica_contexts]
        for request in before:
            front_end.enqueue(request)
        for request in before:
            request.future.result(timeout=30)
        report = refit(front_end, factory)
        after = _plan(*replica_contexts[0])
        front_end.enqueue(after).result(timeout=30)
        stats = front_end.stats()
        assert {request.served_generation for request in before} == {1}
        assert after.served_generation == 2
        assert (report["generation_from"], report["generation_to"]) == (1, 2)
        assert report["inflight_at_flip"] == 0
        assert report["flip_seconds"] < 0.5  # pointer swaps, not training
        assert front_end.fit_generation == stats["generation"] == 2
        assert stats["served"] == len(before) + 1
        if fleet.transport == "process":
            members = front_end.num_replicas
            assert report["num_replicas"] == stats["num_replicas"] == members
            assert stats["refits"] == [report]
            assert {replica["generation"] for replica in stats["replicas"]} == {2}
            # The same workers answered on both sides of the flip.
            assert [replica["pid"] for replica in stats["replicas"]] == pids
            assert sum(replica["completed"] for replica in stats["replicas"]) == len(before) + 1

    def test_flip_refused_when_set_closes_during_training(self, fleet, make_factory):
        """close() racing the training phase must not let the flip install
        the standby into a closed front-end — and close() must still leave
        nothing running, the building workers included."""
        base_factory = make_factory()
        gated, training, release = SharedFlag(), SharedFlag(), SharedFlag()

        def factory():
            if gated.is_set():  # the refit's standby build: hold it mid-train
                training.set()
                release.wait(30.0)
            return base_factory()

        front_end = fleet(factory)
        gated.set()
        errors: list = []

        def run():
            try:
                refit(front_end, factory)
            except ServingError as exc:
                errors.append(exc)

        refitter = threading.Thread(target=run)
        refitter.start()
        try:
            assert training.wait(30.0)  # the standby build really ran
            front_end.close()
        finally:
            release.set()
            refitter.join(60.0)
        assert len(errors) == 1 and "closed" in str(errors[0])
        # No generation landed, no refit recorded — and (the fixture's
        # teardown re-checks threads) nothing of the front-end survived.
        assert front_end.fit_generation == 1
        if fleet.transport == "process":
            assert front_end.stats()["refits"] == []
        assert multiprocessing.active_children() == []

    def test_second_concurrent_refit_rejected(self, fleet, make_factory):
        """One refit at a time: a second one while the first trains raises
        instead of queueing (the caller owns retry policy)."""
        base_factory = make_factory()
        gated, training, release = SharedFlag(), SharedFlag(), SharedFlag()

        def factory():
            if gated.is_set():  # the first refit's standby build
                training.set()
                assert release.wait(30.0)
            return base_factory()

        front_end = fleet(factory)
        gated.set()
        reports: list = []
        first = threading.Thread(target=lambda: reports.append(refit(front_end, factory)))
        first.start()
        try:
            assert training.wait(30.0)
            with pytest.raises(ServingError, match="already in progress"):
                refit(front_end, factory)
        finally:
            release.set()
            first.join(60.0)
        assert not first.is_alive()
        assert [report["generation_to"] for report in reports] == [2]
        assert front_end.fit_generation == 2

    def test_close_after_flip_covers_the_new_generation(
        self, fleet, make_factory, replica_contexts
    ):
        """What close() drains and releases after a flip is the NEW
        generation: its answers resolve at generation 2 and nothing of it
        is left running (the fixture's teardown checks threads)."""
        factory = make_factory()
        front_end = fleet(factory)
        refit(front_end, factory)
        requests = [_plan(*context) for context in replica_contexts]
        for request in requests:
            front_end.enqueue(request)
        front_end.close()
        assert all(request.future.done() for request in requests)
        assert {request.served_generation for request in requests} == {2}
        if fleet.transport == "process":
            assert all(replica.dead for replica in front_end.active_replicas())
        else:
            assert front_end.queue.closed
        assert multiprocessing.active_children() == []


class TestFleetClose:
    def test_close_releases_every_pipe_and_socket(self, fleet, make_factory, replica_contexts):
        """Each worker's socket and its process handle's pipe pair are
        released by close(), a killed worker's too."""
        before = open_fds()
        if before is None:
            pytest.skip("/proc does not list this process's file descriptors")
        front_end = fleet(make_factory())
        for history, objective, user in replica_contexts[:3]:
            path: tuple = ()
            for _ in range(2):  # a plan, then a step answered from it
                step = ServeRequest.create(
                    "next_step", history, objective, path_so_far=path, user_index=user
                )
                answer = front_end.enqueue(step).result(timeout=30)
                path = path if answer is None else path + (answer,)
        if fleet.transport == "process":
            front_end.active_replicas()[0].worker.kill()
        front_end.close()
        assert open_fds() <= before
