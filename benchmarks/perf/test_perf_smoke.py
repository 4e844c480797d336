"""Tier-2 contract smoke test (``pytest -m perf``).

Runs :mod:`repro.perf.bench` in its seconds-scale smoke profile and asserts
every section's contract bits and work counts (module forwards, token-work,
cache hits, spans per request) — none of it wall-clock, so CI stays
deterministic.  Timings are ``benchmarks/e2e``'s business.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.perf.bench import BENCH_SECTIONS, run_benchmarks

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    output = tmp_path_factory.mktemp("perf") / "BENCH_path_planning.json"
    report = run_benchmarks(profile="smoke", output=str(output))
    # The artefact must be valid JSON carrying what was returned, and the
    # report is the only file a run writes.
    assert json.loads(output.read_text())["sections"] == report["sections"]
    assert [path.name for path in output.parent.iterdir()] == [output.name]
    return report


def test_tensor_ops_contract_bits(smoke_report):
    """Tensor-engine PR acceptance: the fused attention kernel matches the
    graph implementation, decode-step K/V appends never copy the prefix,
    float32 inference stays inside its documented tolerance, and the
    in-place ops refuse to run under grad."""
    section = smoke_report["tensor_ops"]
    assert section["attention"]["fused_parity"]
    assert section["attention"]["max_abs_diff"] <= 1e-9
    assert section["decode_allocation"]["no_prefix_copy"]
    arena = section["decode_allocation"]["arena"]
    # Steady-state decode appends copy only the new token columns — the
    # concatenate-equivalent byte count must dwarf what the arena copied.
    assert arena["copied_bytes"] < arena["concat_equivalent_bytes"]
    assert section["float32"]["within_tolerance"]
    assert section["inplace_guard_raises"]


def test_batched_beam_planner_uses_4x_fewer_forwards(smoke_report):
    beam = smoke_report["beam_planning"]
    assert beam["beam_width"] == 4
    # Acceptance criterion: >= 4x fewer module forwards at beam_width=4.
    assert beam["batched"]["forwards"] * 4 <= beam["scalar"]["forwards"]


def test_batched_beam_planner_matches_scalar_plans(smoke_report):
    assert smoke_report["beam_planning"]["plans_equal"]


def test_batched_greedy_rollout_reduces_forwards_and_matches(smoke_report):
    greedy = smoke_report["greedy_planning"]
    assert greedy["batched"]["forwards"] < greedy["scalar"]["forwards"]
    assert greedy["plans_equal"]


def test_batched_nextitem_evaluation_reduces_forwards_and_matches(smoke_report):
    nextitem = smoke_report["nextitem_evaluation"]
    assert nextitem["batched"]["forwards"] < nextitem["scalar"]["forwards"]
    assert nextitem["ranks_equal"]


def test_stepwise_replanning_token_work_reduction(smoke_report):
    """Cache-PR acceptance: >= 2x less transformer token-work for the
    ``next_step``-driven IRS evaluation versus the PR 1 baseline, with the
    cached paths matching dedicated-planner (isolated) serving semantics."""
    stepwise = smoke_report["irs_stepwise_replanning"]
    assert stepwise["token_work_reduction"] >= 2.0
    assert stepwise["cached_paths_match_isolated"]
    counters = stepwise["cache_counters"]
    assert counters["serving"]["served_from_plan"] > 0
    assert counters["serving"]["replans"] == stepwise["num_instances"]
    assert counters["step_cache"]["hit_rate"] > 0


def test_incremental_decoding_reduces_token_work_with_identical_plans(smoke_report):
    incremental = smoke_report["incremental_decoding"]
    assert incremental["plans_equal"]
    assert incremental["token_work_reduction"] >= 2.0
    assert incremental["incremental"]["tokens_incremental"] > 0
    assert incremental["incremental"]["tokens_fallback"] == 0
    # the default model (2 layers, personalized mask) shares history within a depth
    default_model = incremental["default_model"]
    assert default_model["plans_equal"]
    assert default_model["token_work_reduction"] >= 2.0
    assert default_model["shared_history"]["tokens_incremental"] == 0


def test_sharded_evaluation_bit_identical_at_every_thread_count(smoke_report):
    """The offline evaluation protocol's batched and stepwise records, and
    the next-item metrics, equal the serial ones at 1, 2 and 4 threads."""
    sharded = smoke_report["sharded_evaluation"]
    assert [row["num_workers"] for row in sharded["workers"]] == [1, 2, 4]
    for row in sharded["workers"]:
        assert row["records_equal_serial"]
        assert row["stepwise_records_equal_serial"]
        assert row["nextitem_equal_serial"]


def test_sharded_evaluation_records_machine_context(smoke_report):
    sharded = smoke_report["sharded_evaluation"]
    assert sharded["cpu_count"] >= 1
    for row in sharded["workers"]:
        assert row["records"] == sharded["num_instances"] > 0


def test_async_serving_responses_bit_identical(smoke_report):
    """Async-serving acceptance: for the fixed lockstep trace, ServingLoop
    responses equal sequential next_step serving."""
    assert smoke_report["async_serving"]["responses_match_sequential"]


def test_async_serving_records_served_and_admission_counts(smoke_report):
    """The served and admitted counts of the trace agree."""
    serving = smoke_report["async_serving"]
    assert serving["served"] > 0
    assert serving["admission"]["admitted"] == serving["served"]
    assert serving["admission"]["rejected"] == 0
    assert serving["admission"]["policy"] in ("block", "reject")


def test_replicated_serving_parity_at_shared_generation(smoke_report):
    """Replication-PR acceptance: with all replicas at one generation, the
    lockstep responses are bit-identical to single-replica serving."""
    replicated = smoke_report["replicated_serving"]
    assert replicated["num_replicas"] == 2
    assert replicated["parity"]["responses_match_single_replica"]
    assert replicated["parity"]["served"] > 0


def test_replicated_hot_refit_never_pauses_serving(smoke_report):
    """Replication-PR acceptance: the hot refit drops/errors zero admitted
    requests, rejects nothing under the block policy, and flips exactly one
    generation forward (the same bits repro.perf.gate enforces in CI)."""
    refit_run = smoke_report["replicated_serving"]["hot_refit"]
    assert refit_run["errored_requests"] == 0
    assert refit_run["rejected_requests"] == 0
    assert refit_run["no_pause"] is True
    refit = refit_run["refit"]
    assert refit["generation_to"] == refit["generation_from"] + 1
    assert refit["flip_seconds"] < 0.5  # pointer swaps, not training
    assert refit_run["admitted_requests"] == sum(
        refit_run["generations_served"].values()
    )


def test_distributed_serving_parity_and_chaos_bits(smoke_report):
    """Distributed-PR acceptance: multi-process responses bit-identical to
    sequential serving at every worker count, wire bytes counted per
    envelope, and the SIGKILL chaos run dropped nothing and detected the dead
    worker inside the missed-heartbeat budget (the bits repro.perf.gate
    enforces)."""
    distributed = smoke_report["distributed_serving"]
    codec = distributed["codec"]
    assert codec["request_bytes_per_envelope"] > 0
    assert codec["response_bytes_per_envelope"] > 0
    assert codec["heartbeat_frame_bytes"] > 0
    if not distributed["can_fork"]:  # pragma: no cover - non-fork platforms
        pytest.skip("process transport needs fork")
    assert [row["num_workers"] for row in distributed["workers"]] == [1, 2, 4]
    for row in distributed["workers"]:
        assert row["responses_match_sequential"]
        assert row["burst_answers_match"]
    chaos = distributed["chaos"]
    assert chaos["zero_dropped"] is True
    assert chaos["answers_match"] is True
    assert chaos["unhealthy_within_budget"] is True


def test_observability_span_budget_and_noop(smoke_report):
    """Observability contract as counts: the untraced replay allocates no
    trace or span, the traced one allocates one trace per served request
    and stays inside the spans-per-request budget."""
    obs = smoke_report["observability"]
    assert obs["disabled_noop"] is True
    assert set(obs["disabled"]["allocation_delta"].values()) == {0}
    enabled = obs["enabled"]
    assert enabled["allocation_delta"]["traces"] == enabled["served"] > 0
    assert enabled["traces_retained"] == enabled["served"]
    assert sum(enabled["span_counts"].values()) == enabled["allocation_delta"]["spans"]
    overhead = obs["overhead"]
    assert overhead["within_budget"] is True
    assert 0 < overhead["spans_per_request"] <= overhead["budget_spans"]
    assert obs["deterministic_trace_ids"] is True
    assert obs["async_parity_with_tracing"] and obs["replicated_parity_with_tracing"]


def test_smoke_report_gates_green_with_every_section_required(smoke_report):
    """The smoke report itself must pass the CI gate as CI invokes it."""
    from repro.perf.gate import collect_violations

    assert collect_violations(smoke_report, require=BENCH_SECTIONS) == []


#: A leaf whose key path matches this is a wall-clock reading by name.
WALL_CLOCK = re.compile(
    r"seconds|_ns$|_ms$|_us$|per_sec|_rps|p50|p95|p99|speedup|efficiency"
)
#: The wall-clock leaves a report may carry, each with why it is there.
WALL_CLOCK_ALLOWED = {
    # the contract is a deadline: detection time against the heartbeat budget
    "distributed_serving.chaos.detect_seconds",
    "distributed_serving.chaos.budget_seconds",
    # the flip must be a pointer swap, not a retrain (asserted < 0.5 s above)
    "replicated_serving.hot_refit.refit.flip_seconds",
    # tests/test_cli.py pins "forwards/sec" in the `repro-irs bench` summary
    "irs_stepwise_replanning.cached.forwards_per_sec",
}


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (str(key),))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaf_paths(value, path + (str(index),))
    else:
        yield path


def test_report_carries_no_unlisted_wall_clock_leaf(smoke_report):
    """One clock: every timing lives in benchmarks/e2e.  A new `*_ms` /
    `*_per_sec` / percentile field in the contract report fails here."""
    timed = {
        ".".join(path)
        for path in _leaf_paths(smoke_report)
        if any(WALL_CLOCK.search(key) for key in path)
    }
    assert timed <= WALL_CLOCK_ALLOWED


def test_sections_filter_runs_subset():
    """Satellite: run_benchmarks(sections=...) runs only the named sections
    (the repro-irs bench --sections flag routes here)."""
    from repro.perf.bench import resolve_sections
    from repro.utils.exceptions import ConfigurationError

    report = run_benchmarks(profile="smoke", sections=["nextitem_evaluation"])
    assert report["sections"] == ["nextitem_evaluation"]
    assert "nextitem_evaluation" in report
    assert "beam_planning" not in report and "async_serving" not in report
    assert resolve_sections(None) == BENCH_SECTIONS
    assert len(BENCH_SECTIONS) == 13
    with pytest.raises(ConfigurationError, match="unknown bench section"):
        resolve_sections(["beam_planning", "quantum_planning"])


def test_every_section_records_cpu_count(smoke_report):
    """Sections carry the machine's CPU count, so the perf trajectory stays
    comparable across runs."""
    for name in BENCH_SECTIONS:
        assert smoke_report[name]["cpu_count"] == smoke_report["machine"]["cpu_count"]
    assert smoke_report["machine"]["platform"]


def test_two_stage_retrieval_contract_bits(smoke_report):
    """Retrieval-PR acceptance: full-vocabulary candidate sets plan
    bit-identically to the exact planner, every candidate set contains its
    objective, and both generator backends record overlap@k / plan regret
    at every tier (the same bits repro.perf.gate enforces in CI)."""
    section = smoke_report["two_stage_retrieval"]
    assert section["full_vocab_parity"] is True
    assert section["objective_in_candidates"] is True
    assert section["tiers"]
    for tier in section["tiers"]:
        assert set(tier["generators"]) == {"cooccurrence", "ann"}
        for row in tier["generators"].values():
            assert 0.0 <= row["overlap_at_k"] <= 1.0
            assert "mean_plan_regret" in row
            assert row["requests"] >= row["fallbacks"] >= 0
            # the per-row gathered projection plans what full scoring does
            assert row["gathered_matches_full"] is True
            # +1: the objective is appended when the shortlist missed it.
            assert 0 < row["mean_candidate_size"] <= section["num_candidates"] + 1


def test_retrieval_sections_record_peak_rss(smoke_report):
    """Satellite: the machine block and every section record peak RSS so
    memory regressions show in the committed bench trajectory."""
    import sys

    if not sys.platform.startswith(("linux", "darwin")):
        pytest.skip("ru_maxrss unavailable off-POSIX")
    assert smoke_report["machine"]["peak_rss_kb"] > 0
    assert smoke_report["two_stage_retrieval"]["peak_rss_kb"] > 0
