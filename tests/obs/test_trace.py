"""Tracer semantics: determinism, sampling, the disabled no-op, sinks."""

from __future__ import annotations

import threading

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    BatchSink,
    Tracer,
    current_sink,
    stable_hash,
    use_sink,
)
from repro.shard.partition import stable_hash as shard_stable_hash

KEYS = [((1, 2, 3), 7, 0), ((4, 5), 9, 1), ((1, 2, 3), 7, 0), ("ctx", 2, None)]


def test_stable_hash_matches_the_shard_routing_hash():
    # obs restates the construction to stay a leaf package; the whole point
    # is that trace-ID key hashes agree with shard routing hashes.
    for key in KEYS:
        assert stable_hash(key) == shard_stable_hash(key)


def test_disabled_tracer_returns_none_and_allocates_nothing():
    registry = MetricsRegistry()
    tracer = Tracer(enabled=False, registry=registry)
    assert tracer.begin(("k", 1, None)) is None
    assert all(value == 0 for value in tracer.counters().values())


def test_null_tracer_is_disabled():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.begin(("k", 1, None)) is None


def test_trace_ids_are_deterministic_across_tracers():
    ids_a = [Tracer(enabled=True, registry=MetricsRegistry()).begin(k).trace_id for k in KEYS]
    ids_b = [Tracer(enabled=True, registry=MetricsRegistry()).begin(k).trace_id for k in KEYS]
    # Fresh tracer per begin: every ID is the key's ordinal-0 identity.
    assert ids_a == ids_b


def test_trace_ids_sequence_repeated_keys():
    tracer = Tracer(enabled=True, registry=MetricsRegistry())
    first = tracer.begin(KEYS[0]).trace_id
    other = tracer.begin(KEYS[1]).trace_id
    again = tracer.begin(KEYS[2]).trace_id  # same key as KEYS[0]
    assert first.endswith("-0")
    assert again == first[: first.rfind("-")] + "-1"
    assert other != first


def test_sampling_is_deterministic_and_counted():
    keys = [(("u", i), i % 3, None) for i in range(64)]

    def traced(tracer):
        return [key for key in keys if tracer.begin(key) is not None]

    rate = 0.5
    picked_a = traced(Tracer(enabled=True, sample_rate=rate, registry=MetricsRegistry()))
    picked_b = traced(Tracer(enabled=True, sample_rate=rate, registry=MetricsRegistry()))
    assert picked_a == picked_b
    assert 0 < len(picked_a) < len(keys)


def test_sample_rate_zero_traces_nothing():
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True, sample_rate=0.0, registry=registry)
    assert all(tracer.begin(key) is None for key in KEYS)
    counters = tracer.counters()
    assert counters["traces"] == 0
    assert counters["sampled_out"] == len(KEYS)


def test_capacity_bounds_retention_and_counts_drops():
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True, capacity=2, registry=registry)
    for i in range(5):
        assert tracer.begin((("k", i), 0, None)) is not None
    assert len(tracer.trace_ids()) == 2
    counters = tracer.counters()
    assert counters["traces"] == 5
    assert counters["dropped"] == 3


def test_span_ids_number_repeated_names():
    tracer = Tracer(enabled=True, registry=MetricsRegistry())
    trace = tracer.begin(KEYS[0])
    first = trace.span("beam.depth", 0.0, 0.1, depth=0)
    second = trace.span("beam.depth", 0.1, 0.2, depth=1)
    other = trace.span("serve.drain", 0.0, 0.2)
    assert first.span_id == f"{trace.trace_id}/beam.depth#0"
    assert second.span_id == f"{trace.trace_id}/beam.depth#1"
    assert other.span_id == f"{trace.trace_id}/serve.drain#0"
    assert second.attrs == {"depth": 1}


def test_timed_records_the_body_interval():
    tracer = Tracer(enabled=True, registry=MetricsRegistry())
    trace = tracer.begin(KEYS[0])
    with trace.timed("work", tag="x"):
        pass
    (span,) = trace.spans
    assert span.name == "work"
    assert span.end >= span.start
    assert span.attrs == {"tag": "x"}


def test_finish_counts_spans_once():
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True, registry=registry)
    trace = tracer.begin(KEYS[0])
    trace.span("a", 0.0, 0.1)
    trace.span("b", 0.0, 0.1)
    tracer.finish(trace)
    tracer.finish(trace)  # idempotent
    tracer.finish(None)  # tolerated
    assert tracer.counters()["spans"] == 2


def test_export_and_summary_shapes():
    tracer = Tracer(enabled=True, registry=MetricsRegistry())
    trace = tracer.begin(KEYS[0], kind="next_step")
    trace.span("a", 0.0, 0.002)
    trace.span("a", 0.0, 0.004)
    (exported,) = tracer.export()
    assert exported["trace_id"] == trace.trace_id
    assert exported["attrs"] == {"kind": "next_step"}
    assert [span["name"] for span in exported["spans"]] == ["a", "a"]
    assert all(span["duration_ms"] > 0 for span in exported["spans"])
    summary = tracer.summary()
    assert summary["a"]["count"] == 2
    assert summary["a"]["max_ms"] >= summary["a"]["mean_ms"]


def test_reset_clears_traces_and_sequences():
    tracer = Tracer(enabled=True, registry=MetricsRegistry())
    first = tracer.begin(KEYS[0]).trace_id
    tracer.reset()
    assert tracer.trace_ids() == []
    # Sequences restart: the same key maps to its ordinal-0 identity again.
    assert tracer.begin(KEYS[0]).trace_id == first


def test_batch_sink_broadcast_and_targeting():
    tracer = Tracer(enabled=True, registry=MetricsRegistry())
    traced = tracer.begin(KEYS[0])
    sink = BatchSink([traced, None])
    assert bool(sink)
    sink.batch_span("beam.depth", 0.0, 0.1, depth=0)
    sink.request_span(0, "cache.decision", 0.0, 0.1, outcome="hit")
    sink.request_span(1, "cache.decision", 0.0, 0.1, outcome="hit")  # untraced slot
    sink.request_span(99, "cache.decision", 0.0, 0.1, outcome="hit")  # out of range
    assert [span.name for span in traced.spans] == ["beam.depth", "cache.decision"]


def test_empty_sink_is_falsy_and_use_sink_skips_it():
    sink = BatchSink([None, None])
    assert not sink
    with use_sink(sink):
        assert current_sink() is None
    with use_sink(None):
        assert current_sink() is None


def test_use_sink_installs_and_restores():
    tracer = Tracer(enabled=True, registry=MetricsRegistry())
    outer = BatchSink([tracer.begin(KEYS[0])])
    inner = BatchSink([tracer.begin(KEYS[1])])
    assert current_sink() is None
    with use_sink(outer):
        assert current_sink() is outer
        with use_sink(inner):
            assert current_sink() is inner
        assert current_sink() is outer
    assert current_sink() is None


def test_sink_is_thread_local():
    tracer = Tracer(enabled=True, registry=MetricsRegistry())
    sink = BatchSink([tracer.begin(KEYS[0])])
    seen = []

    def worker():
        seen.append(current_sink())
        with use_sink(sink):
            seen.append(current_sink())

    with use_sink(sink):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    # The spawned thread starts with no sink (thread-local), then installs
    # the captured one explicitly — the worker-thread re-entry pattern.
    assert seen == [None, sink]


def test_concurrent_span_appends_are_safe():
    tracer = Tracer(enabled=True, registry=MetricsRegistry())
    trace = tracer.begin(KEYS[0])
    rounds = 200

    def append():
        for _ in range(rounds):
            trace.span("beam.depth", 0.0, 0.1)

    threads = [threading.Thread(target=append) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(trace.spans) == 4 * rounds
    assert len({span.span_id for span in trace.spans}) == 4 * rounds
