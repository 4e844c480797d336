"""Span lifecycle across a hot refit (the mid-trace flip satellite).

One tracer is shared by every generation's serving loops, so traces from
both sides of a flip land in one retained list.  The contract: a request
served at the flip boundary is answered on exactly one lane at exactly one
generation — a drained one stamps it on its one ``serve.drain`` span
(batches are never torn across generations), one answered at admission
from a resident plan has no drain span and stamps it on its ``admission``
span — and per serving context the generation is monotone non-decreasing in
trace-sequence order.  Untraced, the fleet allocates nothing across a flip.
"""

from __future__ import annotations

from repro.evaluation.protocol import rollout_next_step
from repro.obs import Tracer, get_registry
from repro.replica import ReplicaSet
from repro.serve import replay_lockstep

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
        if span["name"] == "serve.drain"
        or (span["name"] == "admission" and span["attrs"].get("resident"))
    ]


def test_traces_span_the_flip_with_one_generation_each(make_planner, obs_contexts):
    tracer = Tracer(enabled=True, sample_rate=1.0)
    with ReplicaSet(lambda: make_planner(), num_replicas=2, tracer=tracer) as replica_set:
        before = replay_lockstep(replica_set, obs_contexts, MAX_LENGTH)
        replica_set.refit()
        after = replay_lockstep(replica_set, obs_contexts, MAX_LENGTH)

    # Tracing changes nothing a fleet answers, and the shared backbone is
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

    # Per serving context (one key hash per context: the routing key omits
    # the evolving path), generations never roll back across the flip.
    per_key: "dict[str, list[tuple[int, int]]]" = {}
    for trace in traces:
        key_hash, sequence = split_trace_id(trace["trace_id"])
        per_key.setdefault(key_hash, []).append((sequence, served_generations(trace)[0]))
    assert len(per_key) == len(obs_contexts)
    for entries in per_key.values():
        entries.sort()
        generations = [generation for _, generation in entries]
        assert generations == sorted(generations)


def test_flip_boundary_trace_ids_stay_deterministic(make_planner, obs_contexts):
    def run():
        tracer = Tracer(enabled=True, sample_rate=1.0)
        with ReplicaSet(
            lambda: make_planner(), num_replicas=2, tracer=tracer
        ) as replica_set:
            replay_lockstep(replica_set, obs_contexts, MAX_LENGTH)
            replica_set.refit()
            replay_lockstep(replica_set, obs_contexts, MAX_LENGTH)
        return sorted(tracer.trace_ids())

    assert run() == run()


def test_an_untraced_fleet_allocates_nothing_across_a_flip(make_planner, obs_contexts):
    """Zero cost when off holds for the fleet too: its replicas, its refit
    and the generation after it allocate no trace and no span."""
    registry = get_registry()
    before = registry.snapshot("obs.trace")["counters"]
    with ReplicaSet(lambda: make_planner(), num_replicas=2) as replica_set:
        replay_lockstep(replica_set, obs_contexts, MAX_LENGTH)
        replica_set.refit()
        replay_lockstep(replica_set, obs_contexts, MAX_LENGTH)
        served = replica_set.stats()["served"]
    assert registry.snapshot("obs.trace")["counters"] == before
    assert served > 0


def test_refit_keeps_replica_stats_shape_with_tracing(make_planner, obs_contexts):
    tracer = Tracer(enabled=True, sample_rate=1.0)
    with ReplicaSet(lambda: make_planner(), num_replicas=2, tracer=tracer) as replica_set:
        replay_lockstep(replica_set, obs_contexts, MAX_LENGTH)
        replica_set.refit()
        replay_lockstep(replica_set, obs_contexts, MAX_LENGTH)
        stats = replica_set.stats()
    assert {"served", "replicas", "refits", "admission", "dispatch"} <= set(stats)
    assert len(stats["refits"]) == 1
    assert stats["refits"][0]["generation_to"] == 2
