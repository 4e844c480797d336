"""Planner-level contract of ``BeamSearchPlanner.plan_for_requests``: the
micro-batch multiplexer answers exactly like the sequential entry points it
routes for, while fusing the planning work."""

from __future__ import annotations

import pytest

from repro.serve.request import ServeRequest
from repro.utils.exceptions import ConfigurationError
from tests.core.reference_beam import ReferenceBeamPlanner


def _step(history, objective, user, path_so_far=()):
    return ServeRequest.create("next_step", history, objective, path_so_far, user_index=user)


def _plan(history, objective, user, max_length=None):
    return ServeRequest.create(
        "plan_paths", history, objective, user_index=user, max_length=max_length
    )


class TestSequentialEquivalence:
    def test_mixed_batch_matches_sequential_calls(self, make_planner, serve_contexts):
        reference = make_planner()
        expected = []
        requests = []
        for history, objective, user in serve_contexts[:4]:
            expected.append(reference.next_step(history, objective, [], user_index=user))
            requests.append(_step(history, objective, user))
        for history, objective, user in serve_contexts[4:7]:
            expected.append(reference.plan_path(history, objective, user_index=user))
            requests.append(_plan(history, objective, user))
        planner = make_planner()
        assert planner.plan_for_requests(requests) == expected

    def test_horizon_override_matches_plan_path(self, make_planner, serve_contexts):
        history, objective, user = serve_contexts[0]
        reference = make_planner()
        expected = reference.plan_path(history, objective, user_index=user, max_length=3)
        planner = make_planner()
        assert planner.plan_for_requests([_plan(history, objective, user, 3)]) == [expected]

    def test_progressed_sessions_match_sequential(self, make_planner, serve_contexts):
        """A lockstep round mid-session (non-empty path_so_far) is answered
        identically to per-request next_step calls."""
        reference = make_planner()
        sessions = {}
        for history, objective, user in serve_contexts[:3]:
            first = reference.next_step(history, objective, [], user_index=user)
            sessions[(tuple(history), objective, user)] = [first]
        expected = [
            reference.next_step(history, objective, sessions[(tuple(history), objective, user)], user_index=user)
            for history, objective, user in serve_contexts[:3]
        ]
        planner = make_planner()
        planner.plan_for_requests([_step(h, o, u) for h, o, u in serve_contexts[:3]])
        results = planner.plan_for_requests(
            [_step(h, o, u, sessions[(tuple(h), o, u)]) for h, o, u in serve_contexts[:3]]
        )
        assert results == expected

    def test_empty_batch(self, make_planner):
        assert make_planner().plan_for_requests([]) == []

    def test_unknown_kind_rejected(self, make_planner, serve_contexts):
        """An envelope built past ``create`` may carry any kind; the planner
        answers only its own two, and refuses the batch before any work."""
        history, objective, user = serve_contexts[0]
        planner = make_planner()
        with pytest.raises(ConfigurationError, match="kind"):
            planner.plan_for_requests(
                [
                    _step(history, objective, user),
                    ServeRequest(kind="rank", history=tuple(history), objective=5),
                ]
            )
        assert planner.cache_info()["serving"]["replans"] == 0


class TestFusedWork:
    def test_micro_batch_fuses_replans(self, serve_irn, make_planner, serve_contexts, tiny_split):
        """N cold next_step requests answered as one micro-batch must cost
        fewer transformer forwards than N sequential replans of the
        re-scoring oracle (the object beam, sessions off), and answer the
        same — the lockstep fusion win applied to serving traffic."""
        contexts = serve_contexts[:6]
        batched_planner = make_planner()
        sequential_planner = ReferenceBeamPlanner(
            serve_irn, sessions=False, max_length=batched_planner.max_length
        ).fit(tiny_split)
        before = serve_irn.decode_stats.snapshot()
        expected = [
            sequential_planner.next_step(history, objective, [], user_index=user)
            for history, objective, user in contexts
        ]
        sequential_forwards = serve_irn.decode_stats.snapshot()["forwards"] - before["forwards"]

        before = serve_irn.decode_stats.snapshot()
        answers = batched_planner.plan_for_requests([_step(h, o, u) for h, o, u in contexts])
        batched_forwards = serve_irn.decode_stats.snapshot()["forwards"] - before["forwards"]
        assert answers == expected
        assert batched_forwards < sequential_forwards

    def test_serving_counters_match_sequential_semantics(
        self, make_planner, serve_contexts
    ):
        planner = make_planner()
        contexts = serve_contexts[:4]
        planner.plan_for_requests([_step(h, o, u) for h, o, u in contexts])
        info = planner.cache_info()
        assert info["serving"]["replans"] == len(contexts)
        # Serving the same round again is pure cache hits.
        planner.plan_for_requests([_step(h, o, u) for h, o, u in contexts])
        info = planner.cache_info()
        assert info["serving"]["served_from_plan"] == len(contexts)
