"""The one stamping site: :meth:`repro.serve.api.Response.stamp`.

The in-process drain and the process transport used to duplicate the
completion-stamp logic (and its never-negative clamps); both now call
``Response.stamp``, so the unit rules AND the cross-process clock
regressions live together here.
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import pytest

from repro.serve.api import Response
from repro.distributed import CAN_FORK
from repro.serve.request import ServeRequest

HEARTBEAT_INTERVAL = 0.05


def _envelope(**kwargs):
    kwargs.setdefault("history", (1, 2, 3))
    kwargs.setdefault("objective", 7)
    return ServeRequest.create(
        "next_step", kwargs.pop("history"), kwargs.pop("objective"), **kwargs
    )


class TestStampRules:
    def test_local_stamps_are_written_and_drain_anchor_returned(self):
        request = _envelope()
        anchor = Response.stamp(
            request,
            completed_at=10.0,
            drain_started_at=9.0,
            served_generation=3,
            batch_tag=42,
            replica_index=1,
        )
        assert anchor == 9.0
        assert request.completed_at == 10.0
        assert request.drain_started_at == 9.0
        assert request.served_generation == 3
        assert request.batch_tag == 42
        assert request.replica_index == 1

    def test_completed_at_defaults_to_now(self):
        request = _envelope()
        before = time.perf_counter()
        anchor = Response.stamp(request)
        after = time.perf_counter()
        assert before <= request.completed_at <= after
        # With no drain stamp, the trace anchor falls back to completion.
        assert anchor == request.completed_at

    def test_remote_durations_rebase_onto_the_callers_clock(self):
        request = _envelope()
        anchor = Response.stamp(
            request,
            completed_at=100.0,
            remote_queue_wait_s=0.25,
            remote_service_s=0.75,
        )
        # drain_started_at = done - max(service - queue_wait, 0)
        assert anchor == pytest.approx(99.5)
        assert request.drain_started_at == pytest.approx(99.5)
        assert request.remote_queue_wait_s == pytest.approx(0.25)
        assert request.remote_service_s == pytest.approx(0.75)

    def test_shorter_service_than_queue_wait_clamps_to_completion(self):
        """A worker that measured service < queue wait must not push the
        drain anchor past the completion instant."""
        request = _envelope()
        anchor = Response.stamp(
            request,
            completed_at=50.0,
            remote_queue_wait_s=0.9,
            remote_service_s=0.1,
        )
        assert anchor == 50.0
        assert request.drain_started_at == 50.0
        response = Response.from_envelope(request, answer=None)
        assert response.service_s == 0.0
        assert response.queue_wait_s == pytest.approx(0.9)

    def test_latency_never_negative_even_with_skewed_endpoints(self):
        """The never-negative regression, distilled: whatever durations a
        worker ships, every derived span clamps at zero."""
        request = _envelope()
        request.enqueued_at = 200.0
        Response.stamp(
            request,
            completed_at=199.0,  # adversarial: "completed before enqueued"
            remote_queue_wait_s=5.0,
            remote_service_s=1.0,
        )
        response = Response.from_envelope(request, answer=7)
        assert response.latency_s == 0.0
        assert response.queue_wait_s >= 0.0
        assert response.service_s >= 0.0

    def test_stamps_are_written_before_the_future_resolves(self):
        """Callers woken by ``future.result()`` must read a complete
        envelope — the stamping site runs before resolution."""
        request = _envelope()
        seen: "list[tuple]" = []

        def reader(future: Future) -> None:
            seen.append((request.completed_at, request.served_generation))

        request.future.add_done_callback(reader)
        Response.stamp(request, completed_at=7.0, served_generation=2)
        request.resolve(11)
        assert seen == [(7.0, 2)]

    @pytest.mark.parametrize("lane", ["queued", "resident"])
    def test_both_lanes_stamp_once_before_the_future_resolves(
        self, lane, make_planner, serve_contexts, monkeypatch
    ):
        """A drained request and a step answered at admission from a resident
        plan go through the one stamp site exactly once each, and whoever the
        future wakes reads a complete, ordered envelope."""
        from repro.serve import ServingLoop

        stamped = []
        stamp = Response.stamp
        monkeypatch.setattr(
            Response,
            "stamp",
            staticmethod(lambda request, **kw: stamped.append(request) or stamp(request, **kw)),
        )
        history, objective, user = serve_contexts[0]
        planner = make_planner()
        planner.pin_generation(serving_generation=7)
        if lane == "resident":
            planner.next_step(history, objective, [], user_index=user)
        request = ServeRequest.create("next_step", history, objective, user_index=user)
        seen: "list[tuple]" = []
        request.future.add_done_callback(
            lambda _future: seen.append(
                (
                    request.served_generation,
                    request.batch_tag is not None,
                    request.completed_at >= request.drain_started_at >= request.enqueued_at > 0.0,
                )
            )
        )
        with ServingLoop(planner) as loop:
            loop.enqueue(request).result(timeout=10)
            assert loop.stats()["resident"] == (1 if lane == "resident" else 0)
        assert seen == [(7, True, True)]
        assert stamped == [request]
        if lane == "resident":
            assert request.drain_started_at == request.enqueued_at  # it never waited

    def test_replica_index_untouched_when_not_supplied(self):
        request = _envelope()
        request.replica_index = 4
        Response.stamp(request, completed_at=1.0)
        assert request.replica_index == 4


@pytest.mark.skipif(not CAN_FORK, reason="process transport needs fork")
class TestCrossProcessClocks:
    """Regression: worker timestamps must never leak into parent latencies.

    ``time.perf_counter()`` epochs are process-local, so the transport
    ships durations only; the parent stamps ``enqueued_at`` at send and
    ``completed_at`` at receipt on its own clock.
    """

    def test_latency_is_parent_clock_and_never_negative(
        self, make_planner, serve_contexts
    ):
        from repro.distributed import RemoteReplicaSet

        with RemoteReplicaSet(
            lambda: make_planner(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        ) as remote_set:
            requests = []
            for history, objective, user in serve_contexts:
                request = ServeRequest.create(
                    "plan_paths", history, objective, user_index=user
                )
                remote_set.enqueue(request)
                requests.append(request)
            for request in requests:
                request.future.result(timeout=30)
        for request in requests:
            # Both endpoints stamped by the parent: the difference is a real
            # elapsed time, positive regardless of the workers' clock epochs.
            assert request.completed_at is not None
            assert request.completed_at >= request.enqueued_at
            # Worker-measured durations arrive as durations and are sane.
            assert request.remote_queue_wait_s >= 0.0
            assert request.remote_service_s >= 0.0
            assert request.remote_service_s >= request.remote_queue_wait_s

    def test_open_loop_driver_reports_non_negative_latencies(
        self, make_planner, serve_contexts
    ):
        from repro.distributed import RemoteReplicaSet
        from repro.serve.driver import run_open_loop

        with RemoteReplicaSet(
            lambda: make_planner(),
            num_replicas=2,
            heartbeat_interval=HEARTBEAT_INTERVAL,
        ) as remote_set:
            report = run_open_loop(
                remote_set,
                serve_contexts,
                arrival_rate=200.0,
                duration=0.5,
                seed=11,
            )
        assert report["admitted_requests"] > 0
        assert report["errored_requests"] == 0
        assert report["latency_ms"]["count"] == report["admitted_requests"]
        # The regression this suite exists for: a worker-clock timestamp
        # leaking into the latency calculation shows up as a negative or
        # wildly skewed sample.  Every percentile must be a real elapsed time.
        assert 0.0 <= report["latency_ms"]["p50"] <= report["latency_ms"]["max"]
