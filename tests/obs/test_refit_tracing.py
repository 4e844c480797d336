"""Span lifecycle across a hot refit (the mid-trace flip satellite).

A loop's tracer outlives its refits, so traces from both sides of a flip
land in one retained list.  The contract: a request
served at the flip boundary is answered on exactly one lane at exactly one
generation — a drained one stamps it on its one ``serve.drain`` span
(batches are never torn across generations), one answered at admission
from a resident plan has no drain span and stamps it on its ``admission``
span — and per serving context the generation is monotone non-decreasing in
trace-sequence order.  Untraced, the loop allocates nothing across a flip.
The process fleet's refit is that loop refit in every worker: the parent's
traces hold the same contract, a wire answer stamping its
``remote.serve.drain`` span and a step answered in the parent its
``admission`` span.
"""

from __future__ import annotations

import pytest

from repro.distributed import CAN_FORK, RemoteReplicaSet
from repro.evaluation.protocol import rollout_next_step
from repro.obs import Tracer, get_registry
from repro.serve import ServingLoop, replay_lockstep

MAX_LENGTH = 5  # keep in sync with tests/obs/conftest.py


def split_trace_id(trace_id):
    key_hash, _, sequence = trace_id.partition("-")
    return key_hash, int(sequence)


def served_generations(trace):
    """The generation stamp(s) of one trace: its drain span's, or — for a
    step answered at admission from a resident plan — its admission span's."""
    return [
        span["attrs"]["served_generation"]
        for span in trace["spans"]
        if span["name"] in ("serve.drain", "remote.serve.drain")
        or (span["name"] == "admission" and span["attrs"].get("resident"))
    ]


def assert_monotone_per_context(traces, contexts) -> None:
    """Per serving context (one key hash per context: the routing key omits
    the evolving path), generations never roll back across the flip."""
    per_key: "dict[str, list[tuple[int, int]]]" = {}
    for trace in traces:
        key_hash, sequence = split_trace_id(trace["trace_id"])
        per_key.setdefault(key_hash, []).append((sequence, served_generations(trace)[0]))
    assert len(per_key) == len(contexts)
    for entries in per_key.values():
        entries.sort()
        generations = [generation for _, generation in entries]
        assert generations == sorted(generations)


def test_traces_span_the_flip_with_one_generation_each(make_planner, obs_contexts):
    tracer = Tracer(enabled=True, sample_rate=1.0)
    with ServingLoop(make_planner(), tracer=tracer) as loop:
        before = replay_lockstep(loop, obs_contexts, MAX_LENGTH)
        loop.refit(make_planner)
        after = replay_lockstep(loop, obs_contexts, MAX_LENGTH)

    # Tracing changes nothing a loop answers, and the shared backbone is
    # untouched by the flip: both replays answer like sequential serving.
    assert before == rollout_next_step(make_planner(), obs_contexts, MAX_LENGTH)
    assert after == before

    traces = tracer.export()
    assert traces
    seen_generations = set()
    lanes = set()
    for trace in traces:
        generations = served_generations(trace)
        # Exactly one lane answered, stamping exactly one generation — a
        # trace at the flip boundary is served wholly before or wholly after.
        assert len(generations) == 1
        names = [span["name"] for span in trace["spans"]]
        resident = "serve.drain" not in names
        assert ("queue.wait" in names) != resident
        lanes.add(resident)
        seen_generations.update(generations)
    assert seen_generations == {1, 2}
    assert lanes == {True, False}
    assert_monotone_per_context(traces, obs_contexts)


@pytest.mark.skipif(not CAN_FORK, reason="the process fleet needs the fork start method")
def test_fleet_traces_span_the_flip_with_one_generation_each(make_planner, obs_contexts):
    tracer = Tracer(enabled=True, sample_rate=1.0)
    with RemoteReplicaSet(
        make_planner, num_replicas=2, tracer=tracer, heartbeat_interval=0.05
    ) as fleet:
        before = replay_lockstep(fleet, obs_contexts, MAX_LENGTH)
        fleet.refit()
        after = replay_lockstep(fleet, obs_contexts, MAX_LENGTH)

    assert before == rollout_next_step(make_planner(), obs_contexts, MAX_LENGTH)
    assert after == before
    traces = tracer.export()
    lanes = set()
    for trace in traces:
        # One lane, one generation: over the wire, or from the parent's mirror.
        assert len(served_generations(trace)) == 1
        lanes.add("remote.serve.drain" in [span["name"] for span in trace["spans"]])
    assert {served_generations(trace)[0] for trace in traces} == {1, 2}
    assert lanes == {True, False}
    assert_monotone_per_context(traces, obs_contexts)


def test_flip_boundary_trace_ids_stay_deterministic(make_planner, obs_contexts):
    def run():
        tracer = Tracer(enabled=True, sample_rate=1.0)
        with ServingLoop(make_planner(), tracer=tracer) as loop:
            replay_lockstep(loop, obs_contexts, MAX_LENGTH)
            loop.refit(make_planner)
            replay_lockstep(loop, obs_contexts, MAX_LENGTH)
        return sorted(tracer.trace_ids())

    assert run() == run()


def test_an_untraced_loop_allocates_nothing_across_a_flip(make_planner, obs_contexts):
    """Zero cost when off holds across a refit too: the loop, its refit and
    the generation after it allocate no trace and no span."""
    registry = get_registry()
    before = registry.snapshot("obs.trace")["counters"]
    with ServingLoop(make_planner()) as loop:
        replay_lockstep(loop, obs_contexts, MAX_LENGTH)
        loop.refit(make_planner)
        replay_lockstep(loop, obs_contexts, MAX_LENGTH)
        served = loop.stats()["served"]
    assert registry.snapshot("obs.trace")["counters"] == before
    assert served > 0


def test_refit_keeps_the_stats_shape_with_tracing(make_planner, obs_contexts):
    tracer = Tracer(enabled=True, sample_rate=1.0)
    with ServingLoop(make_planner(), tracer=tracer) as loop:
        replay_lockstep(loop, obs_contexts, MAX_LENGTH)
        shape_before = set(loop.stats())
        loop.refit(make_planner)
        replay_lockstep(loop, obs_contexts, MAX_LENGTH)
        stats = loop.stats()
    assert set(stats) == shape_before
    assert {"served", "generation", "admission", "service_latency"} <= set(stats)
    assert stats["generation"] == 2
