"""The parent-side plan mirror of the process fleet.

A worker answers each ``next_step`` with the plan that answered it; its
parent-side handle (:class:`~repro.distributed.remote.RemoteReplica`) keeps
that plan and answers the session's later steps on the calling thread, so
only replans cross the wire.  What must hold: answers equal sequential
serving whatever is interleaved; a context's steps keep their order while
one of them is on the wire; the mirror is the worker's entry or nothing
(a refit, a dead or suspected worker, a response without a plan all leave
nothing behind).  Everything runs under the ``fleet`` fixture and its leak
check.
"""

from __future__ import annotations

import os
import re
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import wire
from repro.distributed.wire import FrameType
from repro.serve import ServingLoop
from repro.serve.api import NextStepRequest
from repro.serve.request import ServeRequest
from repro.tenant import TenantRegistry
from repro.tenant.adapters import PlannerAdapter
from repro.utils.exceptions import DeadlineExceeded, QueueFullError, ServingError

from tests.replica.conftest import MAX_LENGTH, SharedFlag

process_only = pytest.mark.parametrize("fleet", ["process"], indirect=True)


def _step(context, path=(), **envelope) -> ServeRequest:
    history, objective, user = context
    return ServeRequest.create(
        "next_step", history, objective, path_so_far=path, user_index=user, **envelope
    )


def _ask(front_end, context, path=(), **envelope) -> ServeRequest:
    request = _step(context, path, **envelope)
    front_end.enqueue(request).result(timeout=30)
    return request


def _wait(predicate, timeout=10.0) -> bool:
    deadline = time.perf_counter() + timeout
    while not predicate() and time.perf_counter() < deadline:
        time.sleep(0.005)
    return predicate()


@pytest.fixture()
def request_frames(monkeypatch):
    """Counts the REQUEST_BATCH frames this process sends from here on."""
    sent = []
    send_frame = wire.send_frame

    def spy(sock, frame_type, payload=b"", lock=None):
        if frame_type == FrameType.REQUEST_BATCH:
            sent.append(len(payload))
        return send_frame(sock, frame_type, payload, lock=lock)

    monkeypatch.setattr(wire, "send_frame", spy)
    return sent


class _PlanGate:
    """Holds every replan of the planners it guards while shut — in whichever
    process they run: the flags are inherited through the fork, and a worker
    waits on the gate by polling, so reopening never hangs on a worker that
    died while it waited.  A replan that finds the gate shut sets
    :attr:`parked` before it waits, so a test can tell a held replan from
    one that has not reached the planner yet."""

    def __init__(self) -> None:
        self._open = SharedFlag(True)
        self.parked = SharedFlag(False)

    def guard(self, planner):
        plan, is_open, parked = planner.plan_paths_batch, self._open, self.parked

        def gated(*args, **kwargs):
            if not is_open.is_set():
                parked.set()
            assert is_open.wait(30.0), "the test never reopened the gate"
            return plan(*args, **kwargs)

        planner.plan_paths_batch = gated
        return planner

    def shut(self) -> None:
        self._open.clear()

    def open(self) -> None:
        self._open.set()


class _Twins:
    """The sequential reference of a fleet: one twin planner per member,
    fed each answered request in submission order — a session that re-homes
    meets a member that never saw it, and replans there, as on the fleet."""

    def __init__(self, factory) -> None:
        self._factory = factory
        self._planners: dict = {}

    def answer(self, request: ServeRequest):
        planner = self._planners.get(request.replica_index)
        if planner is None:
            planner = self._planners[request.replica_index] = self._factory()
        return planner.next_step(
            request.history,
            request.objective,
            list(request.path_so_far),
            user_index=request.user_index,
        )


class _Sessions:
    """Lockstep sessions over ``contexts``: one step each per round, a
    finished path starts over."""

    def __init__(self, front_end, contexts) -> None:
        self.front_end = front_end
        self.contexts = contexts
        self.paths = [() for _ in contexts]
        self.answered: "list[ServeRequest]" = []

    def round(self) -> "list[ServeRequest]":
        requests = [_step(c, path) for c, path in zip(self.contexts, self.paths)]
        for request in requests:
            self.front_end.enqueue(request)
        for index, request in enumerate(requests):
            answer = request.future.result(timeout=30)
            path = self.paths[index] + (answer,)
            self.paths[index] = () if answer is None or len(path) >= MAX_LENGTH else path
        self.answered.extend(requests)
        return requests


class TestMirrorParity:
    @pytest.mark.parametrize("fleet", ["inproc", "process-1", "process-2"], indirect=True)
    def test_interleaved_steps_answer_like_the_sequential_twin(
        self, fleet, make_factory, replica_contexts
    ):
        """Hits, misses, diverged paths and duplicate contexts, all submitted
        before any is awaited, answer what sequential ``next_step`` answers —
        on either transport, the mirror of one and of two workers included on
        the process one."""
        contexts = replica_contexts[:3]
        front_end = fleet(make_factory())
        twin = make_factory()()
        tracked = [() for _ in contexts]
        submitted = [0]

        @given(
            ops=st.lists(
                st.tuples(st.integers(0, 2), st.sampled_from(["follow", "diverge", "restart"])),
                min_size=1,
                max_size=10,
            )
        )
        @settings(max_examples=20, deadline=None)
        def run(ops):
            requests, expected = [], []
            for index, mode in ops:
                history, objective, user = contexts[index]
                path = tracked[index]
                if mode == "restart" or len(path) >= MAX_LENGTH:
                    path = ()
                elif mode == "diverge":
                    wrong = history[0] if not path or path[-1] != history[0] else history[1]
                    path = path[:-1] + (wrong,)
                answer = twin.next_step(history, objective, list(path), user_index=user)
                tracked[index] = () if answer is None else path + (answer,)
                requests.append(_step(contexts[index], path))
                expected.append(answer)
            for request in requests:
                front_end.enqueue(request)
            assert [r.future.result(timeout=30) for r in requests] == expected
            assert {r.served_generation for r in requests} == {1}
            submitted[0] += len(requests)

        run()
        stats = front_end.stats()
        assert stats["served"] == stats["admission"]["admitted"] == submitted[0]
        if fleet.transport == "process":
            transport = stats["transport"]
            assert transport["parent_answered"] > 0
            assert transport["parent_answered"] + transport["requests_sent"] == submitted[0]
            assert transport["duplicate_responses"] == 0
            for replica in front_end.active_replicas():
                assert replica._steps_on_wire == {} and replica.pending_count() == 0


@process_only
class TestOnlyReplansCrossTheWire:
    def test_a_session_is_one_frame_and_a_divergence_one_more(
        self, fleet, make_factory, replica_contexts, sequential_paths, request_frames
    ):
        front_end = fleet(make_factory(), num_replicas=1)
        context, expected = replica_contexts[0], sequential_paths[0]
        steps = []
        while len(steps) < len(expected):
            steps.append(_ask(front_end, context, tuple(expected[: len(steps)])))
        assert [step.future.result() for step in steps] == expected
        assert len(request_frames) == 1
        # The first step crossed the boundary; the rest never left the parent.
        assert steps[0].remote_service_s is not None
        assert all(step.remote_service_s is None for step in steps[1:])
        assert {step.served_generation for step in steps} == {1}
        assert {step.replica_index for step in steps} == {steps[0].replica_index}
        assert len({step.batch_tag for step in steps}) == len(steps)

        history = context[0]
        wrong = history[0] if expected[0] != history[0] else history[1]
        reference = make_factory()()
        replanned = reference.next_step(history, context[1], [wrong], user_index=context[2])
        diverged = _ask(front_end, context, (wrong,))
        assert diverged.future.result() == replanned
        assert len(request_frames) == 2
        follow_up = _ask(front_end, context, (wrong, replanned))
        assert follow_up.remote_service_s is None and len(request_frames) == 2
        assert follow_up.future.result() == reference.next_step(
            history, context[1], [wrong, replanned], user_index=context[2]
        )
        transport = front_end.stats()["transport"]
        assert transport["plans_received"] == transport["requests_sent"] == 2
        assert transport["parent_answered"] == len(expected)

    def test_a_step_behind_its_contexts_replan_goes_to_the_wire(
        self, fleet, make_factory, replica_contexts, sequential_paths, request_frames
    ):
        gate, base = _PlanGate(), make_factory()
        front_end = fleet(lambda: gate.guard(base()), num_replicas=1)
        context, expected = replica_contexts[0], sequential_paths[0]
        gate.shut()
        try:
            first, duplicate = _step(context), _step(context)
            front_end.enqueue(first)
            front_end.enqueue(duplicate)  # its context's replan is in flight
            assert gate.parked.wait(10.0), "the worker's replan never reached the gate"
            assert len(request_frames) == 2 and not first.future.done()
        finally:
            gate.open()
        assert first.future.result(timeout=30) == duplicate.future.result(timeout=30) == expected[0]
        # Both are answered: the context's next step is resident again.
        assert _ask(front_end, context, (expected[0],)).remote_service_s is None
        assert len(request_frames) == 2


@process_only
class TestMirrorAndRefit:
    def test_every_context_replans_once_on_the_new_generation(
        self, fleet, make_factory, replica_contexts, request_frames
    ):
        """``test_refit_race.py``'s invariants over the process transport,
        with sessions whose steps are mostly answered in the parent."""
        front_end = fleet(make_factory(), num_replicas=2)
        sessions = _Sessions(front_end, replica_contexts)
        for _ in range(2):
            sessions.round()
        assert {r.served_generation for r in sessions.answered} == {1}

        report: dict = {}
        refitter = threading.Thread(target=lambda: report.update(front_end.refit()))
        refitter.start()
        while refitter.is_alive() and len(sessions.answered) < 4000:
            sessions.round()
        refitter.join(timeout=60)
        assert report["generation_to"] == 2

        # After refit() returned every step is answered at the new generation,
        # most of them in the parent again.
        for _ in range(3):
            sessions.round()
        after = sessions.answered[-3 * len(replica_contexts) :]
        assert {r.served_generation for r in after} == {2}
        assert any(r.remote_service_s is None for r in after)

        everything = sessions.answered
        assert all(r.served_generation in (1, 2) for r in everything)
        batches: "dict[tuple, set]" = {}
        per_context: "dict[tuple, list[int]]" = {}
        for r in everything:
            batches.setdefault((r.replica_index, r.batch_tag), set()).add(r.served_generation)
            per_context.setdefault(r.routing_key(), []).append(r.served_generation)
        assert all(len(generations) == 1 for generations in batches.values())
        assert all(generations == sorted(generations) for generations in per_context.values())
        # The commit empties every mirror: each context's first step at a
        # generation crossed the wire (and planned there), and — a finished
        # path starting over is a prefix of its plan — nothing else did, bar
        # a step that met the flip itself (one on the wire at the commit,
        # whose generation-1 plan is not mirrored: at most once a context).
        firsts = {}
        for r in everything:
            firsts.setdefault((r.routing_key(), r.served_generation), r)
        assert len(firsts) == 2 * len(replica_contexts)
        assert all(r.remote_service_s is not None for r in firsts.values())
        assert 0 <= len(request_frames) - len(firsts) <= len(replica_contexts)

        # The workers' loops count across their flip — the steps their
        # handles answered included.
        stats = front_end.stats()
        assert stats["served"] == len(everything)
        assert stats["transport"]["parent_answered"] == sum(
            1 for r in everything if r.remote_service_s is None
        )


@process_only
class TestMirrorAndFailures:
    def test_sigkill_mid_session_rehomes_and_replans(
        self, fleet, make_factory, replica_contexts
    ):
        front_end = fleet(make_factory(), num_replicas=2)
        twins = _Twins(make_factory())
        sessions = _Sessions(front_end, replica_contexts)
        for _ in range(2):
            for request in sessions.round():
                assert request.future.result() == twins.answer(request)
        victim = front_end.active_replicas()[0]
        homed = sum(1 for r in sessions.answered[-len(replica_contexts) :]
                    if r.replica_index == victim.index)
        assert homed and victim.stats()["mirrored_plans"] == homed
        os.kill(victim.worker.pid, signal.SIGKILL)
        assert _wait(lambda: victim.dead)
        answered_by_victim = victim.stats()["parent_answered"]
        for _ in range(MAX_LENGTH):
            for request in sessions.round():
                assert request.replica_index != victim.index
                assert request.future.result() == twins.answer(request)
        # The dead handle's mirror went with its pending table and was never
        # read again; the survivor's answered its sessions' later steps.
        assert victim.stats()["mirrored_plans"] == 0
        assert victim.stats()["parent_answered"] == answered_by_victim
        assert front_end.stats()["transport"]["parent_answered"] > answered_by_victim

    def test_a_suspected_then_rejoined_worker_starts_from_an_empty_mirror(
        self, fleet, make_factory, replica_contexts
    ):
        front_end = fleet(
            make_factory(), num_replicas=2, heartbeat_misses=3, probation_beats=2
        )
        twins = _Twins(make_factory())
        sessions = _Sessions(front_end, replica_contexts)
        for _ in range(2):
            for request in sessions.round():
                assert request.future.result() == twins.answer(request)
        victim = front_end.active_replicas()[0]
        assert victim.stats()["mirrored_plans"] > 0
        os.kill(victim.worker.pid, signal.SIGSTOP)
        try:
            assert _wait(lambda: victim.suspected)
            # cleared with the pending table the detector drains right after
            assert _wait(lambda: victim.stats()["mirrored_plans"] == 0)
            for request in sessions.round():  # re-homed: the survivor replans
                assert request.replica_index != victim.index
                assert request.future.result() == twins.answer(request)
        finally:
            os.kill(victim.worker.pid, signal.SIGCONT)
        assert _wait(lambda: victim.healthy)
        for _ in range(MAX_LENGTH):
            for request in sessions.round():
                assert request.future.result() == twins.answer(request)
        assert front_end.stats()["transport"]["duplicate_responses"] == 0


class _ForgetfulAdapter(PlannerAdapter):
    """Shows its planner's plans ``shown`` times, then none (or raises)."""

    def __init__(self, planner, shown: int, raises: bool = False) -> None:
        super().__init__(planner)
        self._peek, self._shown, self._raises = self.resident_plan, shown, raises
        self.resident_plan = self._resident_plan

    def _resident_plan(self, request):
        if self._raises:
            raise RuntimeError("no plan to show")
        self._shown -= 1
        return self._peek(request) if self._shown >= 0 else None


@process_only
class TestResponsesWithoutAPlan:
    def _fleet(self, fleet, make_factory, **adapter):
        planner_factory = make_factory()

        def tenant_factory():
            registry = TenantRegistry()
            registry.add("t", _ForgetfulAdapter(planner_factory(), **adapter))
            return registry

        return fleet(planner_factory, num_replicas=1, tenant_factory=tenant_factory)

    def test_a_plain_answer_drops_the_mirrored_entry(
        self, fleet, make_factory, replica_contexts, sequential_paths, request_frames
    ):
        front_end = self._fleet(fleet, make_factory, shown=1)
        (replica,) = front_end.active_replicas()
        context, expected = replica_contexts[0], sequential_paths[0]
        reference = make_factory()()
        history, objective, user = context
        assert _ask(front_end, context, tenant="t").future.result() == expected[0]
        assert _ask(front_end, context, (expected[0],), tenant="t").remote_service_s is None
        assert replica.stats()["mirrored_plans"] == 1 and len(request_frames) == 1
        # The replan's response carries no plan: the entry it would replace
        # is dropped, and the session's later steps cross the wire.
        wrong = history[0] if expected[0] != history[0] else history[1]
        replanned = reference.next_step(history, objective, [wrong], user_index=user)
        assert _ask(front_end, context, (wrong,), tenant="t").future.result() == replanned
        assert replica.stats()["mirrored_plans"] == 0
        follow_up = _ask(front_end, context, (wrong, replanned), tenant="t")
        assert follow_up.remote_service_s is not None and len(request_frames) == 3
        assert follow_up.future.result() == reference.next_step(
            history, objective, [wrong, replanned], user_index=user
        )
        stats = front_end.stats()
        assert stats["transport"]["plans_received"] == stats["transport"]["parent_answered"] == 1
        assert stats["resident"] == 2  # one in the parent, one at the worker's admission

    def test_a_worker_whose_peek_raises_still_answers_plainly(
        self, fleet, make_factory, replica_contexts, sequential_paths
    ):
        front_end = self._fleet(fleet, make_factory, shown=0, raises=True)
        context, expected = replica_contexts[0], sequential_paths[0]
        answers = []
        while len(answers) < len(expected):
            answers.append(
                _ask(front_end, context, tuple(answers), tenant="t").future.result()
            )
        assert answers == expected
        transport = front_end.stats()["transport"]
        assert transport["plans_received"] == transport["parent_answered"] == 0
        assert transport["responses"] == transport["requests_sent"] == len(expected)


@process_only
class TestWorkerNeverSwallowsAResponse:
    def test_a_record_that_cannot_be_built_is_answered_with_an_error(
        self, fleet, make_factory, replica_contexts
    ):
        """A done-callback's exception is logged and dropped by
        ``concurrent.futures``; the worker must ship an error record or the
        parent's future hangs until its caller gives up."""
        planner_factory = make_factory()

        def tenant_factory():
            registry = TenantRegistry()
            adapter = PlannerAdapter(planner_factory())
            # An answer the record builder cannot lower onto the wire.
            adapter.plan_for_requests = lambda requests: [object() for _ in requests]
            registry.add("t", adapter)
            return registry

        front_end = fleet(planner_factory, num_replicas=1, tenant_factory=tenant_factory)
        with pytest.raises(ServingError, match="could not build the response.*TypeError"):
            front_end.enqueue(_step(replica_contexts[0], tenant="t")).result(timeout=10)
        # The worker is still serving.
        assert front_end.stats()["replicas"][0]["healthy"]


@process_only
class TestMirrorAndTenants:
    @pytest.fixture()
    def tenant_fleet(self, fleet, make_factory):
        planner_factory = make_factory()

        def build():
            def tenant_factory():
                registry = TenantRegistry()
                registry.add("placed", planner_factory())
                registry.add("roaming", planner_factory())
                return registry

            return fleet(
                planner_factory,
                num_replicas=2,
                tenant_factory=tenant_factory,
                tenant_placement={"placed": [0]},
            )

        return build

    def test_placed_unplaced_and_untenanted_sessions(
        self, tenant_fleet, replica_contexts, sequential_paths
    ):
        front_end = tenant_fleet()
        answered = []
        for tenant in ("placed", "roaming", None):
            for context, expected in zip(replica_contexts[:3], sequential_paths):
                path = ()
                while len(path) < len(expected):
                    step = _ask(front_end, context, path, tenant=tenant)
                    path += (step.future.result(),)
                    answered.append((tenant, step))
                assert list(path) == expected
        assert {s.replica_index for tenant, s in answered if tenant == "placed"} == {0}
        stats = front_end.stats()
        in_parent = sum(1 for _, s in answered if s.remote_service_s is None)
        assert stats["transport"]["parent_answered"] == in_parent > 0
        assert stats["transport"]["requests_sent"] == 9  # one replan a session
        assert stats["served"] == len(answered)
        # Untenanted steps are counted under the tenant their worker assigned.
        assert sum(t["served"] for t in stats["tenants"].values()) == len(answered)
        per_tenant = {name: t["served"] for name, t in stats["tenants"].items()}
        explicit = sum(1 for tenant, _ in answered if tenant == "placed")
        assert per_tenant["placed"] >= explicit and per_tenant["roaming"] >= explicit


@process_only
class TestDeadlineCrossesTheWire:
    def test_a_budget_spent_before_the_worker_admits_is_refused_not_planned(
        self, fleet, make_factory, replica_contexts
    ):
        front_end = fleet(make_factory(), num_replicas=1)
        (replica,) = front_end.active_replicas()
        # Past the fleet's own check (straight to the member), as a request
        # whose budget ran out between that check and the send would be.
        late = _step(replica_contexts[0], deadline=time.perf_counter() - 0.25)
        replica.accept(late)
        with pytest.raises(QueueFullError, match="worker-0: request deadline expired") as refusal:
            late.future.result(timeout=30)
        assert refusal.type is DeadlineExceeded  # the worker's refusal keeps its type
        # What crossed the wire is the budget, re-anchored on the worker's clock.
        assert float(re.search(r"expired ([0-9.]+)ms", str(refusal.value)).group(1)) >= 250.0
        live = _ask(front_end, replica_contexts[0], deadline=time.perf_counter() + 60.0)
        assert live.future.result() is not None
        stats = front_end.stats()
        (worker,) = stats["admission"]["per_replica"]
        assert worker["expired"] == 1 and worker["admitted"] == 1
        assert worker["rejected"] == 0
        assert stats["served"] == 1 and stats["micro_batches"]["count"] == 1


class TestTypedResponsesFromTheMirror:
    def test_typed_serve_lifts_parent_answers_like_any_other(
        self, fleet, make_factory, replica_contexts, sequential_paths
    ):
        front_end = fleet(make_factory())
        (history, objective, user), expected = replica_contexts[0], sequential_paths[0]
        path = ()
        while len(path) < len(expected):
            response = front_end.serve(
                NextStepRequest(
                    history=history, objective=objective, path_so_far=path, user_index=user
                )
            ).result(timeout=30)
            assert response.served_generation == 1 and response.latency_s >= 0.0
            assert response.queue_wait_s >= 0.0 and response.service_s >= 0.0
            path += (response.answer,)
        assert list(path) == expected
        assert front_end.stats()["resident"] == len(expected) - 1


@process_only
class TestMirrorLaneCountsLikeTheLoop:
    """A step answered from the mirror is counted once, in every place the
    serving loop counts a resident answer — served, resident, admitted, its
    tenant's served — plus ``parent_answered``, the member's dispatched and
    completed, and one dispatcher pick."""

    @staticmethod
    def _script(front_end, contexts) -> list:
        answers = []
        for context in contexts[:3]:
            path = ()
            while len(path) < MAX_LENGTH:
                answer = _ask(front_end, context, path).future.result()
                answers.append(answer)
                if answer is None:
                    break
                path += (answer,)
        answers.append(_ask(front_end, contexts[0], (contexts[0][1],)).future.result())
        for context in contexts[:3]:
            answers.append(_ask(front_end, context).future.result())
        return answers

    @staticmethod
    def _counts(stats) -> dict:
        return {
            "served": stats["served"],
            "resident": stats["resident"],
            "admitted": stats["admission"]["admitted"],
            "tenants": {name: t["served"] for name, t in stats.get("tenants", {}).items()},
        }

    @pytest.mark.parametrize("tenants", [False, True], ids=["untenanted", "tenants"])
    def test_a_scripted_mix_counts_as_on_the_loop(
        self, fleet, make_factory, replica_contexts, tenants
    ):
        planner_factory = make_factory()

        def tenant_factory():
            registry = TenantRegistry()
            registry.add("placed", planner_factory())
            registry.add("roaming", planner_factory())
            return registry

        kwargs = dict(tenant_factory=tenant_factory) if tenants else {}
        with ServingLoop(
            planner_factory(), tenants=tenant_factory() if tenants else None
        ) as loop:
            expected_answers = self._script(loop, replica_contexts)
            expected = self._counts(loop.stats())
        front_end = fleet(planner_factory, num_replicas=1, **kwargs)
        answers = self._script(front_end, replica_contexts)
        stats = front_end.stats()
        ops = len(answers)
        assert answers == expected_answers
        assert self._counts(stats) == expected
        assert 0 < expected["resident"] < expected["served"] == ops
        transport = stats["transport"]
        assert transport["parent_answered"] == expected["resident"]
        assert transport["requests_sent"] == ops - expected["resident"]
        (member,) = stats["replicas"]
        assert member["dispatched"] == member["completed"] == ops
        assert member["parent_answered"] == expected["resident"]
        assert sum(stats["dispatch"]["picks"].values()) == ops
