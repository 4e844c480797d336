"""Unit tests of the CI perf gate (pure dict checks — no benchmarking).

The gate is what makes every serving contract a *required* check: CI runs
``python -m repro.perf.gate BENCH_path_planning.json --require ...`` after
the bench, so these tests pin down exactly which report shapes pass and
which fail.
"""

from __future__ import annotations

import json

import pytest

from repro.perf.gate import collect_violations, main


def green_report() -> dict:
    return {
        "machine": {"cpu_count": 1},
        "tensor_ops": {
            "attention": {"fused_parity": True, "max_abs_diff": 0.0},
            "decode_allocation": {"no_prefix_copy": True},
            "float32": {"within_tolerance": True, "max_abs_diff": 1e-7, "tolerance": 5e-4},
            "inplace_guard_raises": True,
        },
        "beam_planning": {"plans_equal": True},
        "greedy_planning": {"plans_equal": True},
        "nextitem_evaluation": {"ranks_equal": True},
        "irs_stepwise_replanning": {"cached_paths_match_isolated": True},
        "incremental_decoding": {
            "plans_equal": True,
            "default_model": {"plans_equal": True, "token_work_reduction": 2.32},
        },
        "sharded_evaluation": {
            "workers": [
                {
                    "num_workers": workers,
                    "records_equal_serial": True,
                    "stepwise_records_equal_serial": True,
                    "nextitem_equal_serial": True,
                }
                for workers in (1, 2)
            ],
        },
        "async_serving": {"responses_match_sequential": True},
        "replicated_serving": {
            "parity": {"responses_match_single_replica": True},
            "hot_refit": {
                "errored_requests": 0,
                "rejected_requests": 0,
                "no_pause": True,
                "admission": {"policy": "block"},
                "refit": {"generation_from": 1, "generation_to": 2},
            },
        },
        "distributed_serving": {
            "can_fork": True,
            "workers": [
                {
                    "num_workers": 1,
                    "responses_match_sequential": True,
                    "parent_answered": 21,
                    "plans_received": 8,
                    "burst_answers_match": True,
                },
                {
                    "num_workers": 2,
                    "responses_match_sequential": True,
                    "parent_answered": 21,
                    "plans_received": 8,
                    "burst_answers_match": True,
                },
            ],
            "chaos": {
                "zero_dropped": True,
                "answers_match": True,
                "detect_seconds": 0.003,
                "budget_seconds": 0.3,
                "unhealthy_within_budget": True,
            },
        },
        "observability": {
            "disabled": {"p95_ms": 1.0, "allocation_delta": {}},
            "enabled": {"p95_ms": 1.1},
            "overhead": {"p95_delta_ms": 0.1, "budget_ms": 2.0, "within_budget": True},
            "disabled_noop": True,
            "deterministic_trace_ids": True,
            "async_parity_with_tracing": True,
            "replicated_parity_with_tracing": True,
        },
        "two_stage_retrieval": {
            "full_vocab_parity": True,
            "objective_in_candidates": True,
            "tiers": [
                {
                    "num_items": 500,
                    "vocab_size": 501,
                    "generators": {
                        "cooccurrence": {
                            "overlap_at_k": 0.8,
                            "mean_plan_regret": 0.02,
                            "requests": 4,
                            "fallbacks": 0,
                            "gathered_matches_full": True,
                        },
                        "ann": {
                            "overlap_at_k": 0.6,
                            # None = no finite exact/pruned comparison — a
                            # legal measurement, distinct from a missing key.
                            "mean_plan_regret": None,
                            "requests": 4,
                            "fallbacks": 1,
                            "gathered_matches_full": True,
                        },
                    },
                }
            ],
        },
    }


class TestCollectViolations:
    def test_green_report_has_no_violations(self):
        assert collect_violations(green_report()) == []

    def test_subset_report_checks_only_present_sections(self):
        assert collect_violations({"machine": {}}) == []

    def test_require_flags_missing_sections(self):
        violations = collect_violations({"machine": {}}, require=["replicated_serving"])
        assert violations == [
            "replicated_serving: required section missing from the report"
        ]

    def test_replicated_parity_false_fails(self):
        report = green_report()
        report["replicated_serving"]["parity"]["responses_match_single_replica"] = False
        assert any("parity bit false" in v for v in collect_violations(report))

    def test_refit_errored_request_fails(self):
        report = green_report()
        report["replicated_serving"]["hot_refit"]["errored_requests"] = 3
        report["replicated_serving"]["hot_refit"]["no_pause"] = False
        violations = collect_violations(report)
        assert any("errored 3 admitted request" in v for v in violations)
        assert any("no_pause" in v for v in violations)

    def test_rejection_under_block_policy_fails(self):
        report = green_report()
        report["replicated_serving"]["hot_refit"]["rejected_requests"] = 1
        violations = collect_violations(report)
        assert any("rejected under the block admission policy" in v for v in violations)

    def test_rejections_allowed_under_reject_policy(self):
        report = green_report()
        refit_run = report["replicated_serving"]["hot_refit"]
        refit_run["admission"]["policy"] = "reject"
        refit_run["rejected_requests"] = 5
        assert collect_violations(report) == []

    def test_missing_refit_fails(self):
        report = green_report()
        del report["replicated_serving"]["hot_refit"]["refit"]
        assert any("recorded no refit" in v for v in collect_violations(report))

    def test_wrong_generation_step_fails(self):
        report = green_report()
        report["replicated_serving"]["hot_refit"]["refit"]["generation_to"] = 5
        assert any("expected exactly one step" in v for v in collect_violations(report))

    def test_async_serving_mismatch_fails(self):
        report = green_report()
        report["async_serving"]["responses_match_sequential"] = False
        assert any("async_serving" in v for v in collect_violations(report))

    @pytest.mark.parametrize(
        "bit", ["records_equal_serial", "stepwise_records_equal_serial", "nextitem_equal_serial"]
    )
    def test_sharded_and_batched_parity_bits_checked(self, bit):
        report = green_report()
        report["sharded_evaluation"]["workers"][1][bit] = False
        report["beam_planning"]["plans_equal"] = False
        violations = collect_violations(report)
        assert any("sharded_evaluation" in v and "at 2 thread(s)" in v for v in violations)
        assert any("beam_planning" in v for v in violations)

    def test_sharded_evaluation_without_thread_counts_fails(self):
        report = green_report()
        report["sharded_evaluation"]["workers"] = []
        assert any("no thread counts" in v for v in collect_violations(report))

    def test_incremental_default_model_row_is_required(self):
        report = green_report()
        del report["incremental_decoding"]["default_model"]
        assert any("no default-model" in v for v in collect_violations(report))

    def test_incremental_default_model_plans_and_token_work_checked(self):
        report = green_report()
        report["incremental_decoding"]["default_model"] = {
            "plans_equal": False,
            "token_work_reduction": 1.0,
        }
        violations = collect_violations(report)
        assert any("default-model session plans differ" in v for v in violations)
        assert any("1.0x fewer tokens" in v for v in violations)
        report["incremental_decoding"]["plans_equal"] = False  # the 1-layer bit is its own
        assert any(
            "session-cached plans differ" in v for v in collect_violations(report)
        )

    def test_fused_parity_false_fails(self):
        report = green_report()
        report["tensor_ops"]["attention"]["fused_parity"] = False
        assert any("fused attention diverged" in v for v in collect_violations(report))

    def test_prefix_copy_fails(self):
        report = green_report()
        report["tensor_ops"]["decode_allocation"]["no_prefix_copy"] = False
        assert any(
            "no_prefix_copy bit false" in v for v in collect_violations(report)
        )

    def test_float32_out_of_tolerance_fails(self):
        report = green_report()
        report["tensor_ops"]["float32"]["within_tolerance"] = False
        assert any(
            "deviates beyond the documented" in v for v in collect_violations(report)
        )

    def test_inplace_guard_not_raising_fails(self):
        report = green_report()
        report["tensor_ops"]["inplace_guard_raises"] = False
        assert any(
            "did not refuse to run under grad" in v for v in collect_violations(report)
        )

    def test_observability_disabled_allocation_fails(self):
        report = green_report()
        report["observability"]["disabled_noop"] = False
        report["observability"]["disabled"]["allocation_delta"] = {"traces": 3}
        violations = collect_violations(report)
        assert any("zero-cost-when-off" in v and "'traces': 3" in v for v in violations)

    def test_observability_overhead_over_budget_fails(self):
        report = green_report()
        report["observability"]["overhead"]["within_budget"] = False
        assert any(
            "overhead exceeded its budget" in v for v in collect_violations(report)
        )

    def test_observability_nondeterministic_trace_ids_fail(self):
        report = green_report()
        report["observability"]["deterministic_trace_ids"] = False
        assert any(
            "trace IDs differ" in v for v in collect_violations(report)
        )

    def test_observability_parity_bits_checked(self):
        for bit in ("async_parity_with_tracing", "replicated_parity_with_tracing"):
            report = green_report()
            report["observability"][bit] = False
            assert any(
                "changed with tracing enabled" in v for v in collect_violations(report)
            )


class TestDistributedServingGate:
    def test_lockstep_mismatch_fails(self):
        report = green_report()
        report["distributed_serving"]["workers"][1]["responses_match_sequential"] = False
        assert any(
            "lockstep responses at 2 worker(s) differ" in v
            for v in collect_violations(report)
        )

    def test_burst_mismatch_fails(self):
        report = green_report()
        report["distributed_serving"]["workers"][0]["burst_answers_match"] = False
        assert any(
            "burst answers at 1 worker(s) differ" in v
            for v in collect_violations(report)
        )

    @pytest.mark.parametrize("count", [0, None])
    def test_no_step_answered_in_the_parent_fails(self, count):
        report = green_report()
        row = report["distributed_serving"]["workers"][1]
        if count is None:
            del row["parent_answered"]
        else:
            row["parent_answered"] = count
        assert any(
            "no step of the lockstep replay at 2 worker(s) was answered in the parent" in v
            for v in collect_violations(report)
        )

    def test_empty_workers_fail(self):
        report = green_report()
        report["distributed_serving"]["workers"] = []
        assert any(
            "recorded no worker counts" in v for v in collect_violations(report)
        )

    def test_missing_chaos_run_fails(self):
        report = green_report()
        del report["distributed_serving"]["chaos"]
        assert any("recorded no chaos run" in v for v in collect_violations(report))

    def test_dropped_requests_fail(self):
        report = green_report()
        report["distributed_serving"]["chaos"]["zero_dropped"] = False
        assert any(
            "zero_dropped bit false" in v for v in collect_violations(report)
        )

    def test_chaos_answer_drift_fails(self):
        report = green_report()
        report["distributed_serving"]["chaos"]["answers_match"] = False
        assert any(
            "changed under the SIGKILL chaos run" in v
            for v in collect_violations(report)
        )

    def test_detection_over_budget_fails(self):
        report = green_report()
        chaos = report["distributed_serving"]["chaos"]
        chaos["unhealthy_within_budget"] = False
        chaos["detect_seconds"] = 0.9
        assert any(
            "over the missed-heartbeat budget" in v
            for v in collect_violations(report)
        )

    def test_codec_only_report_without_fork_passes(self):
        # A non-fork platform records codec numbers only; nothing to gate.
        report = green_report()
        report["distributed_serving"] = {
            "can_fork": False,
            "codec": {"request_encode_ns": 1200.0},
        }
        assert collect_violations(report) == []

    def test_require_distributed_serving_flags_missing_section(self):
        violations = collect_violations(
            {"machine": {}}, require=["distributed_serving"]
        )
        assert violations == [
            "distributed_serving: required section missing from the report"
        ]


class TestTwoStageRetrievalGate:
    def test_parity_bit_false_fails(self):
        report = green_report()
        report["two_stage_retrieval"]["full_vocab_parity"] = False
        assert any(
            "full_vocab_parity false" in v for v in collect_violations(report)
        )

    def test_missing_objective_fails(self):
        report = green_report()
        report["two_stage_retrieval"]["objective_in_candidates"] = False
        assert any(
            "missing its objective" in v for v in collect_violations(report)
        )

    def test_empty_tiers_fail(self):
        report = green_report()
        report["two_stage_retrieval"]["tiers"] = []
        assert any("no vocab tiers" in v for v in collect_violations(report))

    def test_tier_without_generators_fails(self):
        report = green_report()
        report["two_stage_retrieval"]["tiers"][0]["generators"] = {}
        assert any(
            "no generator backends" in v for v in collect_violations(report)
        )

    def test_missing_or_out_of_range_overlap_fails(self):
        for bad in (None, 1.5, -0.1):
            report = green_report()
            generators = report["two_stage_retrieval"]["tiers"][0]["generators"]
            generators["ann"]["overlap_at_k"] = bad
            assert any(
                "no valid overlap@k" in v and "'ann'" in v
                for v in collect_violations(report)
            )

    def test_missing_regret_key_fails_but_none_value_passes(self):
        # None regret (no finite comparison) is a recorded measurement and
        # must pass; a MISSING key means the bench never measured it.
        assert collect_violations(green_report()) == []
        report = green_report()
        del report["two_stage_retrieval"]["tiers"][0]["generators"]["cooccurrence"][
            "mean_plan_regret"
        ]
        assert any(
            "no plan-regret measurement" in v and "'cooccurrence'" in v
            for v in collect_violations(report)
        )

    def test_more_fallbacks_than_requests_fails(self):
        report = green_report()
        generators = report["two_stage_retrieval"]["tiers"][0]["generators"]
        generators["ann"]["fallbacks"] = 9
        assert any(
            "more fallbacks than requests" in v for v in collect_violations(report)
        )

    def test_gathered_projection_bit_missing_or_false_fails(self):
        for spoil in (lambda row: row.pop("gathered_matches_full"),
                      lambda row: row.update(gathered_matches_full=False)):
            report = green_report()
            spoil(report["two_stage_retrieval"]["tiers"][0]["generators"]["ann"])
            assert any(
                "gathered_matches_full missing or false" in v and "'ann'" in v
                for v in collect_violations(report)
            )

    def test_require_two_stage_retrieval_flags_missing_section(self):
        violations = collect_violations(
            {"machine": {}}, require=["two_stage_retrieval"]
        )
        assert violations == [
            "two_stage_retrieval: required section missing from the report"
        ]


class TestGateMain:
    @pytest.fixture()
    def report_file(self, tmp_path):
        def write(report: dict):
            path = tmp_path / "bench.json"
            path.write_text(json.dumps(report))
            return str(path)

        return write

    def test_green_report_exits_zero(self, report_file, capsys):
        assert main([report_file(green_report())]) == 0
        assert "perf gate ok" in capsys.readouterr().out

    def test_violation_exits_nonzero_and_prints(self, report_file, capsys):
        report = green_report()
        report["replicated_serving"]["hot_refit"]["no_pause"] = False
        assert main([report_file(report)]) == 1
        assert "PERF GATE FAIL" in capsys.readouterr().err

    def test_require_missing_section_exits_nonzero(self, report_file, capsys):
        assert (
            main([report_file({"machine": {}}), "--require", "replicated_serving"]) == 1
        )
        assert "required section missing" in capsys.readouterr().err
