"""End-to-end tracing through the serving loop.

The contract under test: with tracing enabled the loop answers exactly
what it answers untraced (the parity suite's bit), and every admitted
request's trace carries the span lifecycle of its lane — a queued request:
admission, queue wait, drain, per-depth beam expansion and cache decisions;
a step answered at admission from a resident plan: admission
(``resident=True``) and its cache decision, and nothing else.  With tracing disabled (the
default) the process-wide allocation counters must not move at all.
"""

from __future__ import annotations

from repro.evaluation.protocol import rollout_next_step
from repro.obs import Tracer, get_registry
from repro.serve import ServingLoop, replay_lockstep

MAX_LENGTH = 5  # keep in sync with tests/obs/conftest.py


def run_traced(make_planner, contexts, tracer):
    with ServingLoop(make_planner(), tracer=tracer) as loop:
        return replay_lockstep(loop, contexts, MAX_LENGTH)


def test_tracing_preserves_response_parity(make_planner, obs_contexts):
    sequential = rollout_next_step(make_planner(), obs_contexts, MAX_LENGTH)
    tracer = Tracer(enabled=True, sample_rate=1.0)
    served = run_traced(make_planner, obs_contexts, tracer)
    assert served == sequential
    assert len(tracer.trace_ids()) > 0


def span_names(trace):
    return [span["name"] for span in trace["spans"]]


def is_resident(trace):
    (admission,) = [span for span in trace["spans"] if span["name"] == "admission"]
    return admission["attrs"].get("resident", False)


def test_traces_carry_the_span_lifecycle(make_planner, obs_contexts):
    tracer = Tracer(enabled=True, sample_rate=1.0)
    run_traced(make_planner, obs_contexts, tracer)
    traces = tracer.export()
    assert traces, "full sampling must retain every request's trace"
    for trace in traces:
        names = span_names(trace)
        assert names.count("admission") == 1
        assert names.count("cache.decision") == 1
        (decision,) = [s for s in trace["spans"] if s["name"] == "cache.decision"]
        if is_resident(trace):
            # Answered where it was admitted: no queue, no drain, no beam.
            assert sorted(names) == ["admission", "cache.decision"]
            assert decision["attrs"]["outcome"] == "hit"
        else:
            # A queued request passes admission -> queue -> drain, unchanged.
            assert names.count("queue.wait") == 1
            assert names.count("serve.drain") == 1
    # The first request of a context replans (beam depths) in a drain; later
    # steps hit the evolving plan at admission — both lanes and both
    # outcomes must appear across the replay.
    assert {is_resident(trace) for trace in traces} == {True, False}
    outcomes = {
        span["attrs"]["outcome"]
        for trace in traces
        for span in trace["spans"]
        if span["name"] == "cache.decision"
    }
    assert outcomes == {"hit", "replan"}
    assert any(
        span["name"] == "beam.depth" for trace in traces for span in trace["spans"]
    )


def test_drain_spans_stamp_generation_and_batch(make_planner, obs_contexts):
    tracer = Tracer(enabled=True, sample_rate=1.0)
    run_traced(make_planner, obs_contexts, tracer)
    drained = [trace for trace in tracer.export() if not is_resident(trace)]
    assert drained
    for trace in drained:
        (drain,) = [span for span in trace["spans"] if span["name"] == "serve.drain"]
        assert drain["attrs"]["batch_size"] >= 1
        assert "served_generation" in drain["attrs"]
        assert "batch_tag" in drain["attrs"]


def test_disabled_tracing_allocates_nothing(make_planner, obs_contexts):
    registry = get_registry()
    before = registry.snapshot("obs.trace")["counters"]
    with ServingLoop(make_planner()) as loop:  # no tracer: the default path
        replay_lockstep(loop, obs_contexts, MAX_LENGTH)
        stats = loop.stats()
    after = registry.snapshot("obs.trace")["counters"]
    assert after == before
    assert stats["served"] > 0


def test_trace_ids_identical_across_reruns(make_planner, obs_contexts):
    def run():
        tracer = Tracer(enabled=True, sample_rate=1.0)
        run_traced(make_planner, obs_contexts, tracer)
        return sorted(tracer.trace_ids())

    assert run() == run()


def test_sampled_run_traces_a_strict_deterministic_subset(make_planner, obs_contexts):
    def run(rate):
        tracer = Tracer(enabled=True, sample_rate=rate)
        run_traced(make_planner, obs_contexts, tracer)
        return sorted(tracer.trace_ids()), tracer.counters()["sampled_out"]

    full_ids, _ = run(1.0)
    half_ids, sampled_out = run(0.5)
    assert half_ids == run(0.5)[0]
    assert set(half_ids) < set(full_ids)
    assert sampled_out > 0


def test_loop_stats_shape_survives_tracing(make_planner, obs_contexts):
    tracer = Tracer(enabled=True, sample_rate=1.0)
    with ServingLoop(make_planner(), tracer=tracer) as loop:
        replay_lockstep(loop, obs_contexts, MAX_LENGTH)
        stats = loop.stats()
    assert {"served", "per_queue", "service_latency", "admission", "queue_depth"} <= set(stats)
    # Every answered request took exactly one lane.
    assert stats["resident"] > 0
    assert stats["served"] == stats["resident"] + sum(
        q["micro_batch_requests"] for q in stats["per_queue"]
    )
