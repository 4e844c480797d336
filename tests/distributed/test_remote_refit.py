"""The in-place refit across the transport.

The serving loop's refit contract (``tests/replica/test_refit_race.py``)
at the process boundary: every worker builds generation N+1 through its own
``ServingLoop.refit``, acks the sha256 metas of what it built, and flips
only on the parent's COMMIT — same worker processes before and after, zero
admitted requests dropped, also under open-loop traffic.  Anything that
goes wrong before the commit (a factory that raises, shas that disagree, a
worker that dies, a ``close()``) aborts the refit on every worker, and the
fleet keeps answering at generation 1.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.distributed import RemoteReplica, RemoteReplicaSet
from repro.distributed.wire import ResponseRecord
from repro.obs.registry import MetricGroup, get_registry
from repro.replica import run_replicated_open_loop
from repro.serve.request import ServeRequest
from repro.tenant import TenantRegistry
from repro.utils.exceptions import ServingError

from tests.distributed.conftest import _IRN_KWARGS, HEARTBEAT_INTERVAL, MAX_LENGTH
from tests.replica.conftest import SharedFlag

_FORK = multiprocessing.get_context("fork")


def _plan(context, tenant=None) -> ServeRequest:
    history, objective, user = context
    return ServeRequest.create("plan_paths", history, objective, user_index=user, tenant=tenant)


def _step(context, path=(), tenant=None) -> ServeRequest:
    history, objective, user = context
    return ServeRequest.create(
        "next_step", history, objective, path_so_far=path, user_index=user, tenant=tenant
    )


def _wait(predicate, timeout=30.0) -> bool:
    deadline = time.perf_counter() + timeout
    while not predicate() and time.perf_counter() < deadline:
        time.sleep(0.005)
    return predicate()


def _in_workers(factory):
    """``factory`` wrapped so ``hold(base)`` runs in place of it only in a
    forked worker: the parent's generation-1 call stays plain."""
    parent = os.getpid()

    def wrap(hold):
        def build():
            return factory() if os.getpid() == parent else hold(factory)

        return build

    return wrap


def _refit_in_background(fleet) -> "tuple[threading.Thread, dict]":
    outcome: dict = {}

    def run():
        try:
            outcome["report"] = fleet.refit()
        except ServingError as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def _assert_still_at_generation_one(fleet, contexts) -> None:
    """Nothing flipped: the fleet, every live worker's loop and handle are
    at generation 1, each live worker answers at it, and no refit is on
    record."""
    assert fleet.fit_generation == 1
    stats = fleet.stats()
    assert stats["generation"] == 1 and stats["refits"] == []
    live = [member for member in fleet.active_replicas() if not member.dead]
    assert live
    for member, context in zip(live, contexts):
        assert member.generation == 1
        assert member.loop_stats()["generation"] == 1
        request = _plan(context)
        member.accept(request)
        assert request.future.result(timeout=30) is not None
        assert request.served_generation == 1


class TestRemoteRefit:
    def test_refit_in_place_agrees_on_artifacts_and_flips_generation(
        self, make_factory, remote_contexts
    ):
        reference = make_factory()()
        expected = [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in remote_contexts
        ]
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            before = [remote_set.enqueue(_plan(context)) for context in remote_contexts]
            report = remote_set.refit()
            after = [remote_set.enqueue(_plan(context)) for context in remote_contexts]
            # Zero drops: every future from both sides of the flip resolves.
            answers_before = [future.result(timeout=30) for future in before]
            answers_after = [future.result(timeout=30) for future in after]
            stats = remote_set.stats()
            loops = [member.loop_stats() for member in remote_set.active_replicas()]

        assert answers_before == expected
        # The deterministic factory makes generation 2 bit-identical to 1,
        # so parity across the flip is exact (what a real redeploy of the
        # same config must guarantee).
        assert answers_after == expected
        assert report["generation_from"] == 1
        assert report["generation_to"] == 2
        assert report["num_replicas"] == 2
        assert report["train_seconds"] >= 0.0
        assert report["flip_seconds"] < 1.0
        assert [a["name"] for a in report["artifacts"]] == ["model_weights"]
        assert all(a["generation"] == 2 for a in report["artifacts"])
        assert stats["generation"] == 2
        assert {replica["generation"] for replica in stats["replicas"]} == {2}
        assert {loop["generation"] for loop in loops} == {2}
        assert stats["refits"] == [report]
        # One set of shas per generation: the workers' agreed acks for 2.
        assert [(a["name"], a["generation"]) for a in stats["transport"]["artifacts"]] == [
            ("model_weights", 1),
            ("model_weights", 2),
        ]
        assert stats["transport"]["artifacts"][1:] == report["artifacts"]

    def test_the_refit_keeps_the_worker_processes(self, make_factory):
        """In place: the same pids before and after, and never a process
        beyond the fleet's own while the refit runs."""
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            pids = [member.worker.pid for member in remote_set.active_replicas()]
            peak, stop = [0], threading.Event()

            def watch():
                while not stop.is_set():
                    peak[0] = max(peak[0], len(multiprocessing.active_children()))
                    time.sleep(0.001)

            watcher = threading.Thread(target=watch)
            watcher.start()
            try:
                remote_set.refit()
                remote_set.refit()
            finally:
                stop.set()
                watcher.join()
            assert [member.worker.pid for member in remote_set.active_replicas()] == pids
            assert [replica["pid"] for replica in remote_set.stats()["replicas"]] == pids
            assert remote_set.fit_generation == 3
        assert 0 < peak[0] <= 2

    def test_refit_to_different_weights_answers_like_those_weights(
        self, tiny_split, remote_contexts
    ):
        """Generation 2 trained from another seed: after the flip the fleet
        answers exactly like an in-process planner over generation-2 weights.

        The test above cannot see a stale compiled inference program (its
        generation 2 is bit-identical to 1).  Here every planner the factory
        hands out has already planned, so each worker builds its generation
        2 holding a compiled program of its own.
        """

        def planner_for(seed: int) -> BeamSearchPlanner:
            irn = IRN(**{**_IRN_KWARGS, "seed": seed}).fit(tiny_split)
            planner = BeamSearchPlanner(irn, max_length=MAX_LENGTH).fit(tiny_split)
            planner.plan_path(*remote_contexts[0][:2], user_index=remote_contexts[0][2])
            planner.invalidate_caches()
            return planner

        # The parent takes seed 0; each forked worker's copy of the iterator
        # then hands out seed 1.
        seeds = iter((0, 1))
        expected = {
            seed: [
                planner_for(seed).plan_path(history, objective, user_index=user)
                for history, objective, user in remote_contexts
            ]
            for seed in (0, 1)
        }
        assert expected[0] != expected[1]  # the generations really differ

        def ask(remote_set):
            futures = [remote_set.enqueue(_plan(context)) for context in remote_contexts]
            return [future.result(timeout=30) for future in futures]

        with RemoteReplicaSet(
            lambda: planner_for(next(seeds)),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        ) as remote_set:
            assert ask(remote_set) == expected[0]
            report = remote_set.refit()
            assert ask(remote_set) == expected[1]
            generation_one = remote_set.stats()["transport"]["artifacts"][0]
        assert report["generation_to"] == 2
        assert [a["name"] for a in report["artifacts"]] == ["model_weights"]
        assert report["artifacts"][0]["sha256"] != generation_one["sha256"]

    def test_refit_versions_generator_state_for_retrieval_planners(
        self, make_factory, remote_contexts
    ):
        from repro.retrieval.cooccurrence import CooccurrenceNeighborGenerator

        factory = make_factory(
            candidate_generator=CooccurrenceNeighborGenerator(num_candidates=8)
        )
        reference = factory()
        expected = [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in remote_contexts[:4]
        ]
        with RemoteReplicaSet(
            factory, num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            report = remote_set.refit()
            answers = [
                remote_set.enqueue(_plan(context)).result(timeout=30)
                for context in remote_contexts[:4]
            ]
            versions = [
                (meta["name"], meta["generation"])
                for meta in remote_set.stats()["transport"]["artifacts"]
            ]
        assert answers == expected
        assert [a["name"] for a in report["artifacts"]] == [
            "model_weights",
            "generator_state",
        ]
        # Both generations' artifacts stay on record after the flip.
        assert versions == [
            ("model_weights", 1),
            ("generator_state", 1),
            ("model_weights", 2),
            ("generator_state", 2),
        ]

    def test_served_generation_is_monotone_across_the_flip(
        self, make_factory, remote_contexts
    ):
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            remote_set.enqueue(_plan(remote_contexts[0])).result(timeout=30)
            remote_set.refit()
            request = _plan(remote_contexts[0])
            remote_set.enqueue(request).result(timeout=30)
        assert request.served_generation == 2

    def test_open_loop_traffic_never_pauses_across_a_refit(self, make_factory, remote_contexts):
        """``tests/replica/test_refit_race.py``'s no-pause contract over the
        wire: nothing errored, nothing rejected under ``block``, one
        generation step — and resident steps still answered in the parent."""
        with RemoteReplicaSet(
            make_factory(), num_replicas=2, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            report = run_replicated_open_loop(
                remote_set,
                remote_contexts,
                arrival_rate=200.0,
                num_requests=120,
                max_length=MAX_LENGTH,
                refit_at=0.0,
                refit=remote_set.refit,
            )
            transport = remote_set.stats()["transport"]
        assert report["errored_requests"] == report["rejected_requests"] == 0
        assert report["no_pause"] is True
        assert report["refit"]["generation_to"] == report["refit"]["generation_from"] + 1
        assert transport["parent_answered"] > 0

    def test_refit_after_close_raises(self, make_factory):
        remote_set = RemoteReplicaSet(
            make_factory(), num_replicas=1, heartbeat_interval=HEARTBEAT_INTERVAL
        )
        remote_set.close()
        with pytest.raises(ServingError, match="closed"):
            remote_set.refit()


class TestTheFlipInEachWorker:
    def test_a_request_queued_at_the_flip_is_answered_by_the_new_generation(
        self, make_factory, remote_contexts
    ):
        """The loop's flip contract, now the fleet's: the batch in flight at
        a worker's flip finishes on generation 1, a request queued there but
        not yet drained is answered by 2 — and ``refit()`` returns only once
        the batch in flight is answered."""
        base = make_factory()
        planning, gate = _FORK.Event(), _FORK.Event()
        gate.set()

        def factory():
            planner = base()
            plan = planner.plan_paths_batch

            def held(*args, **kwargs):
                planning.set()
                assert gate.wait(30.0), "the test never reopened the gate"
                return plan(*args, **kwargs)

            planner.plan_paths_batch = held
            return planner

        with RemoteReplicaSet(
            factory, num_replicas=1, heartbeat_interval=HEARTBEAT_INTERVAL
        ) as remote_set:
            gate.clear()
            in_flight = _plan(remote_contexts[0])
            remote_set.enqueue(in_flight)
            assert planning.wait(30.0)
            queued = _plan(remote_contexts[1])
            remote_set.enqueue(queued)
            refitter, outcome = _refit_in_background(remote_set)
            try:
                # The parent committed; the worker flipped and now waits for
                # the held batch — and so does refit().
                assert _wait(lambda: remote_set.fit_generation == 2)
                time.sleep(0.2)
                assert refitter.is_alive()
                assert not in_flight.future.done()
            finally:
                gate.set()
                refitter.join(60.0)
            assert in_flight.future.done()  # answered before refit() returned
            report = outcome["report"]
            assert in_flight.future.result() is not None
            assert queued.future.result(timeout=30) is not None
        assert in_flight.served_generation == 1
        assert queued.served_generation == 2
        assert report["inflight_at_flip"] == 1

    def test_after_refit_returns_every_answer_is_the_new_generation(
        self, make_factory, remote_contexts
    ):
        """Sessions of a placed tenant, a roaming one and untenanted ones run
        through the refit, beside one ``plan_paths`` a round per tenant (the
        wire's): every request submitted after ``refit()`` returned is
        answered at generation 2, in the parent or over the wire, and no
        context is answered at 1 after 2."""
        planner_factory = make_factory()

        def tenant_factory():
            registry = TenantRegistry()
            registry.add("placed", planner_factory())
            registry.add("roaming", planner_factory())
            return registry

        tenants = ("placed", "roaming", None)
        sessions = [(context, tenant) for tenant in tenants for context in remote_contexts[:4]]
        paths = [() for _ in sessions]
        answered: "list[tuple[str | None, ServeRequest]]" = []
        stop = threading.Event()

        def traffic(fleet):
            while not stop.is_set():
                requests = [
                    _step(context, path, tenant)
                    for (context, tenant), path in zip(sessions, paths)
                ]
                plans = [(tenant, _plan(remote_contexts[0], tenant)) for tenant in tenants]
                for request in requests + [plan for _, plan in plans]:
                    fleet.enqueue(request)
                for index, request in enumerate(requests):
                    answer = request.future.result(timeout=30)
                    path = paths[index] + (answer,)
                    paths[index] = () if answer is None or len(path) >= MAX_LENGTH else path
                for _, plan in plans:
                    plan.future.result(timeout=30)
                answered.extend(zip((tenant for _, tenant in sessions), requests))
                answered.extend(plans)

        with RemoteReplicaSet(
            planner_factory,
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            tenant_factory=tenant_factory,
            tenant_placement={"placed": [0]},
        ) as remote_set:
            sender = threading.Thread(target=traffic, args=(remote_set,))
            sender.start()
            try:
                assert _wait(lambda: len(answered) >= 2 * len(sessions))
                remote_set.refit()
                returned_at = time.perf_counter()
                seen = len(answered)
                assert _wait(lambda: len(answered) >= seen + 3 * len(sessions))
            finally:
                stop.set()
                sender.join(60.0)

        after = [(tenant, r) for tenant, r in answered if r.enqueued_at > returned_at]
        assert {tenant for tenant, _ in after} == set(tenants)
        assert {r.served_generation for _, r in after} == {2}
        assert any(r.remote_service_s is None for _, r in after)  # in the parent
        assert any(r.remote_service_s is not None for _, r in after)  # over the wire
        assert {r.served_generation for _, r in answered} == {1, 2}
        per_context: "dict[tuple, list[int]]" = {}
        for tenant, request in answered:
            per_context.setdefault((tenant, request.kind, request.routing_key()), []).append(
                request.served_generation
            )
        assert all(generations == sorted(generations) for generations in per_context.values())

    def test_a_long_build_never_gets_its_worker_suspected(self, make_factory, remote_contexts):
        """The factory busy-loops in Python for eight times the detector's
        budget: the build runs on a worker thread of its own, so the worker
        keeps reading requests and heartbeating through it."""
        misses = 3
        budget = misses * HEARTBEAT_INTERVAL

        def spin(factory):
            until = time.perf_counter() + 8 * budget
            while time.perf_counter() < until:
                pass
            return factory()

        with RemoteReplicaSet(
            _in_workers(make_factory())(spin),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
            heartbeat_misses=misses,
        ) as remote_set:
            refitter, outcome = _refit_in_background(remote_set)
            try:
                time.sleep(budget)
                during = [remote_set.enqueue(_plan(context)) for context in remote_contexts[:4]]
                assert all(future.result(timeout=30) is not None for future in during)
                assert refitter.is_alive()  # answered while the workers built
            finally:
                refitter.join(60.0)
            transport = remote_set.stats()["transport"]
        assert outcome["report"]["train_seconds"] >= 8 * budget
        assert transport["marked_unhealthy"] == 0


class TestRefitAborts:
    """Every failure before the commit leaves the fleet at generation 1."""

    def test_a_factory_failing_in_one_worker_is_named_and_a_later_refit_succeeds(
        self, make_factory, remote_contexts
    ):
        failed = _FORK.Value("i", 0)

        def fail_once(factory):
            with failed.get_lock():
                if failed.value == 0:
                    failed.value = os.getpid()
                    raise RuntimeError("boom: this worker's build fails")
            return factory()

        with RemoteReplicaSet(
            _in_workers(make_factory())(fail_once),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        ) as remote_set:
            with pytest.raises(ServingError, match="boom") as refused:
                remote_set.refit()
            (culprit,) = [
                member.index
                for member in remote_set.active_replicas()
                if member.worker.pid == failed.value
            ]
            assert (
                f"worker {culprit} (pid {failed.value}) failed to build generation 2"
                in str(refused.value)
            )
            _assert_still_at_generation_one(remote_set, remote_contexts)
            report = remote_set.refit()
            assert report["generation_to"] == remote_set.fit_generation == 2
            request = remote_set.enqueue(_plan(remote_contexts[0]))
            request.result(timeout=30)
            assert remote_set.stats()["refits"] == [report]

    def test_workers_building_different_weights_are_refused(
        self, make_factory, tiny_split, remote_contexts
    ):
        def reseeded(factory):
            irn = IRN(**{**_IRN_KWARGS, "seed": os.getpid()}).fit(tiny_split)
            return BeamSearchPlanner(irn, max_length=MAX_LENGTH).fit(tiny_split)

        with RemoteReplicaSet(
            _in_workers(make_factory())(reseeded),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        ) as remote_set:
            with pytest.raises(ServingError, match="sha256 .* != .*not deterministic"):
                remote_set.refit()
            _assert_still_at_generation_one(remote_set, remote_contexts)
            assert len(remote_set.stats()["transport"]["artifacts"]) == 1

    def test_a_worker_killed_during_prepare_aborts_and_its_work_redispatches(
        self, make_factory, remote_contexts
    ):
        building, release, serving = _FORK.Semaphore(0), SharedFlag(), SharedFlag(True)
        base = make_factory()

        def held_planner():
            planner = base()
            plan = planner.plan_paths_batch

            def held(*args, **kwargs):
                assert serving.wait(30.0), "the test never reopened the gate"
                return plan(*args, **kwargs)

            planner.plan_paths_batch = held
            return planner

        def block(factory):
            building.release()
            assert release.wait(30.0), "the test never released the build"
            return factory()

        with RemoteReplicaSet(
            _in_workers(held_planner)(block),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        ) as remote_set:
            victim = remote_set.active_replicas()[0]
            refitter, outcome = _refit_in_background(remote_set)
            try:
                for _ in range(2):
                    assert building.acquire(timeout=30.0)
                serving.clear()
                requests = [_plan(context) for context in remote_contexts]
                for request in requests:
                    remote_set.enqueue(request)
                assert _wait(lambda: victim.pending_count() > 0)
                os.kill(victim.worker.pid, signal.SIGKILL)
                assert _wait(lambda: victim.dead)
            finally:
                serving.set()
                release.set()
                refitter.join(60.0)
            assert "worker 0 died" in str(outcome["error"])
            assert all(request.future.result(timeout=30) is not None for request in requests)
            assert {request.served_generation for request in requests} == {1}
            assert {request.replica_index for request in requests} == {1}
            assert remote_set.stats()["transport"]["redispatched"] > 0
            _assert_still_at_generation_one(remote_set, remote_contexts)

    def test_close_during_prepare_abandons_the_refit(self, make_factory):
        building, release = _FORK.Semaphore(0), SharedFlag()

        def block(factory):
            building.release()
            release.wait(30.0)
            return factory()

        remote_set = RemoteReplicaSet(
            _in_workers(make_factory())(block),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        )
        refitter, outcome = _refit_in_background(remote_set)
        try:
            for _ in range(2):
                assert building.acquire(timeout=30.0)
            remote_set.close()
        finally:
            release.set()
            refitter.join(60.0)
        assert "closed" in str(outcome["error"])
        assert remote_set.fit_generation == 1
        assert remote_set.stats()["refits"] == []
        assert multiprocessing.active_children() == []


class TestMirrorAcrossACommit:
    def test_a_plan_served_at_the_old_generation_is_not_mirrored(self, remote_contexts):
        """A response of the batch in flight at the commit arrives after the
        mirror emptied: it answers its request but writes nothing, so the
        context's next step takes the wire to generation 2."""
        parent_end, worker_end = socket.socketpair()
        registry = get_registry()
        metrics = MetricGroup(
            registry,
            registry.scope("distributed.transport"),
            counters=("requests_sent", "bytes_sent", "parent_answered"),
        )
        worker = SimpleNamespace(
            index=0, generation=1, sock=parent_end, send_lock=threading.Lock(), pid=None
        )
        replica = RemoteReplica(worker, metrics)
        replica.on_hello({"resident_slots": 8})
        context, plan = remote_contexts[0], (7, 8, 9)
        try:
            replica.accept(_step(context))  # on the wire as request 1
            replica.commit({"refit": 1, "generation": 2})
            late = ResponseRecord(1, True, plan=plan, served_generation=1)
            assert replica.unregister(1, late) is not None
            assert replica.stats()["mirrored_plans"] == 0

            second = _step(context, plan[:1])
            replica.accept(second)  # nothing mirrored: request 2 on the wire
            assert not second.future.done()
            replica.unregister(2, ResponseRecord(2, True, plan=plan, served_generation=2))
            assert replica.stats()["mirrored_plans"] == 1

            third = _step(context, plan[:2])
            replica.accept(third)  # answered here, from the generation-2 plan
            assert third.future.result(timeout=0) == plan[2]
            assert third.served_generation == 2
        finally:
            parent_end.close()
            worker_end.close()
