"""CI gate over a ``repro.perf.bench`` report.

``python -m repro.perf.gate <report.json>`` re-checks every contract bit a
bench run records and exits nonzero listing every violation, so CI fails
loudly when a contract regresses instead of uploading a broken artefact.
The report carries no timings to gate (wall-clock is ``benchmarks/e2e``
against ``BENCHMARK.json``); the one threshold that involves a clock is a
protocol deadline the report states itself (chaos ``detect_seconds``
against ``budget_seconds``).

* ``tensor_ops`` — fused attention matches the graph implementation,
  decode-step K/V appends never copy the full prefix, float32 inference
  stays inside its documented logit tolerance, in-place ops refuse to run
  under grad.
* ``beam_planning`` / ``greedy_planning`` / ``nextitem_evaluation`` —
  batched plans / ranks equal scalar.
* ``irs_stepwise_replanning`` — cached serving matches isolated semantics.
* ``incremental_decoding`` — session-cached plans equal full re-encoding,
  on the 1-layer model (exact reuse across depths) and on the default
  2-layer personalized model, whose sessions must also encode at least
  2x fewer tokens (an exact count) by sharing history within a depth.
* ``sharded_evaluation`` — the offline evaluation protocol's batched and
  stepwise records, and the next-item ranking, bit-identical to serial at
  every thread count.
* ``async_serving`` — lockstep-replay responses through the serving loop
  bit-identical to sequential serving.
* ``replicated_serving`` — shared-generation responses bit-identical to
  single-replica serving; the hot refit errored zero admitted requests,
  rejected none under the ``block`` policy (``no_pause``) and flipped
  exactly one generation forward.
* ``distributed_serving`` — multi-process responses bit-identical at every
  worker count (lockstep replay AND the distinct-plan burst), with a
  non-zero count of the replay's steps answered in the parent; the SIGKILL
  chaos run dropped nothing, kept answers bit-identical and flipped the
  victim unhealthy within the missed-heartbeat budget.  Skipped wholesale
  when the platform recorded ``can_fork: false``.
* ``observability`` — disabled tracing allocates nothing, full sampling
  allocates one trace per request inside the spans-per-request budget,
  trace IDs repeat across identically driven replays, and the
  async/replicated parity bits hold with tracing enabled.
* ``two_stage_retrieval`` — full-coverage candidate sets plan
  bit-identically to the exact planner, every candidate set contains its
  objective, every tier records overlap@k per generator and plans the
  same paths through the gathered projection as through full scoring
  (``gathered_matches_full``); plan regret is reported but not gated.
* ``multi_tenant`` — every request kind served through the tenant registry
  answers like the direct model call, a bounded tenant's rejects stay in
  its own admission scope, identically seeded A/B runs agree.

Only the sections present in the report are checked (subset runs gate on
what they ran); ``--require`` names sections that must be present (CI
requires all thirteen), and a present-but-empty section is a violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

__all__ = ["collect_violations", "main"]

#: Least ``full_reencode / shared_history`` token ratio of the default-model
#: row: the smoke profile measures 2.32x, and a beam that stopped sharing
#: history within a depth reads 1.0.
DEFAULT_MODEL_TOKEN_WORK_REDUCTION = 2.0


def _check_replicated(section: dict, violations: "list[str]") -> None:
    parity = section.get("parity", {})
    if not parity.get("responses_match_single_replica"):
        violations.append(
            "replicated_serving: shared-generation responses differ from "
            "single-replica serving (parity bit false)"
        )
    refit_run = section.get("hot_refit", {})
    if refit_run.get("errored_requests", 0) != 0:
        violations.append(
            f"replicated_serving: hot refit errored "
            f"{refit_run.get('errored_requests')} admitted request(s)"
        )
    policy = refit_run.get("admission", {}).get("policy")
    if policy == "block" and refit_run.get("rejected_requests", 0) != 0:
        violations.append(
            f"replicated_serving: {refit_run.get('rejected_requests')} request(s) "
            f"rejected under the block admission policy"
        )
    if not refit_run.get("no_pause"):
        violations.append("replicated_serving: the no_pause contract bit is false")
    refit = refit_run.get("refit")
    if refit is None:
        violations.append("replicated_serving: the hot-refit run recorded no refit")
    elif refit.get("generation_to") != refit.get("generation_from", 0) + 1:
        violations.append(
            f"replicated_serving: refit flipped generation "
            f"{refit.get('generation_from')} -> {refit.get('generation_to')} "
            f"(expected exactly one step forward)"
        )


def _check_tensor_ops(section: dict, violations: "list[str]") -> None:
    attention = section.get("attention", {})
    if not attention.get("fused_parity"):
        violations.append(
            "tensor_ops: fused attention diverged from the graph implementation "
            f"(max abs diff {attention.get('max_abs_diff')})"
        )
    allocation = section.get("decode_allocation", {})
    if not allocation.get("no_prefix_copy"):
        violations.append(
            "tensor_ops: decode-step K/V appends copied the full prefix "
            "(no_prefix_copy bit false)"
        )
    float32 = section.get("float32", {})
    if not float32.get("within_tolerance"):
        violations.append(
            "tensor_ops: float32 inference deviates beyond the documented "
            f"tolerance ({float32.get('max_abs_diff')} > {float32.get('tolerance')})"
        )
    if not section.get("inplace_guard_raises"):
        violations.append(
            "tensor_ops: in-place tensor ops did not refuse to run under grad"
        )


def _check_incremental(section: dict, violations: "list[str]") -> None:
    if not section.get("plans_equal"):
        violations.append(
            "incremental_decoding: session-cached plans differ from full re-encoding"
        )
    default_model = section.get("default_model")
    if not default_model:
        violations.append(
            "incremental_decoding: no default-model (2-layer, personalized mask) row"
        )
        return
    if not default_model.get("plans_equal"):
        violations.append(
            "incremental_decoding: default-model session plans differ from full re-encoding"
        )
    reduction = default_model.get("token_work_reduction", 0.0)
    if reduction < DEFAULT_MODEL_TOKEN_WORK_REDUCTION:
        violations.append(
            f"incremental_decoding: default-model sessions encode only {reduction}x fewer "
            f"tokens than full re-encoding (< {DEFAULT_MODEL_TOKEN_WORK_REDUCTION}x): "
            f"history is not being shared within a depth"
        )


def _check_distributed(section: dict, violations: "list[str]") -> None:
    if section.get("can_fork") is False:
        # Codec-only report: there is no process transport to gate.
        return
    workers = section.get("workers", [])
    if not workers:
        violations.append(
            "distributed_serving: the section recorded no worker counts"
        )
    for row in workers:
        label = f"{row.get('num_workers')} worker(s)"
        if not row.get("responses_match_sequential"):
            violations.append(
                f"distributed_serving: lockstep responses at {label} differ "
                f"from sequential serving"
            )
        if not row.get("parent_answered"):
            violations.append(
                f"distributed_serving: no step of the lockstep replay at {label} "
                f"was answered in the parent (parent_answered "
                f"{row.get('parent_answered')!r}): resident steps are crossing the wire"
            )
        if not row.get("burst_answers_match"):
            violations.append(
                f"distributed_serving: burst answers at {label} differ from "
                f"the reference planner"
            )
    chaos = section.get("chaos")
    if chaos is None:
        violations.append("distributed_serving: the section recorded no chaos run")
        return
    if not chaos.get("zero_dropped"):
        violations.append(
            "distributed_serving: the SIGKILL chaos run dropped admitted "
            "request(s) (zero_dropped bit false)"
        )
    if not chaos.get("answers_match"):
        violations.append(
            "distributed_serving: answers changed under the SIGKILL chaos run"
        )
    if not chaos.get("unhealthy_within_budget"):
        violations.append(
            f"distributed_serving: the killed worker flipped unhealthy in "
            f"{chaos.get('detect_seconds')} s, over the missed-heartbeat "
            f"budget of {chaos.get('budget_seconds')} s"
        )


def _check_observability(section: dict, violations: "list[str]") -> None:
    if not section.get("disabled_noop"):
        delta = section.get("disabled", {}).get("allocation_delta")
        violations.append(
            "observability: disabled tracing allocated traces/spans during the "
            f"untraced run (allocation delta {delta}) — the zero-cost-when-off "
            "contract is broken"
        )
    overhead = section.get("overhead", {})
    if not overhead.get("within_budget"):
        violations.append(
            "observability: enabled tracing overhead exceeded its budget "
            f"({overhead.get('spans_per_request')} spans and "
            f"{overhead.get('traces_per_request')} traces per served request; "
            f"budget {overhead.get('budget_spans')} spans, 1 trace)"
        )
    if not section.get("deterministic_trace_ids"):
        violations.append(
            "observability: trace IDs differ across identically-seeded runs"
        )
    if not section.get("async_parity_with_tracing"):
        violations.append(
            "observability: async lockstep responses changed with tracing enabled"
        )
    if not section.get("replicated_parity_with_tracing"):
        violations.append(
            "observability: replicated lockstep responses changed with tracing enabled"
        )


def _check_two_stage_retrieval(section: dict, violations: "list[str]") -> None:
    if not section.get("full_vocab_parity"):
        violations.append(
            "two_stage_retrieval: full-vocabulary candidate sets did not plan "
            "bit-identically to the exact planner (full_vocab_parity false)"
        )
    if not section.get("objective_in_candidates"):
        violations.append(
            "two_stage_retrieval: a candidate set was missing its objective item"
        )
    tiers = section.get("tiers", [])
    if not tiers:
        violations.append("two_stage_retrieval: the section recorded no vocab tiers")
    for tier in tiers:
        label = f"tier V={tier.get('vocab_size')}"
        generators = tier.get("generators", {})
        if not generators:
            violations.append(
                f"two_stage_retrieval: {label} recorded no generator backends"
            )
        for name, row in generators.items():
            overlap = row.get("overlap_at_k")
            if overlap is None or not 0.0 <= float(overlap) <= 1.0:
                violations.append(
                    f"two_stage_retrieval: {label} generator '{name}' recorded "
                    f"no valid overlap@k (got {overlap})"
                )
            if "mean_plan_regret" not in row:
                violations.append(
                    f"two_stage_retrieval: {label} generator '{name}' recorded "
                    f"no plan-regret measurement"
                )
            if row.get("fallbacks", 0) > row.get("requests", 0):
                violations.append(
                    f"two_stage_retrieval: {label} generator '{name}' counted "
                    f"more fallbacks than requests"
                )
            if not row.get("gathered_matches_full"):
                violations.append(
                    f"two_stage_retrieval: {label} generator '{name}' planned "
                    f"different paths through the gathered projection than "
                    f"through full scoring (gathered_matches_full missing or false)"
                )


def _check_multi_tenant(section: dict, violations: "list[str]") -> None:
    per_kind = section.get("per_kind", {})
    if not per_kind:
        violations.append("multi_tenant: the section recorded no request kinds")
    for kind, row in per_kind.items():
        if not row.get("parity"):
            violations.append(
                f"multi_tenant: '{kind}' answers served through the tenant "
                "registry differ from direct model calls"
            )
    if not section.get("isolation", {}).get("isolated"):
        violations.append(
            "multi_tenant: a bounded tenant's admission rejects leaked outside "
            "its own scope (isolation bit false)"
        )
    if not section.get("ab", {}).get("deterministic"):
        violations.append(
            "multi_tenant: identically-seeded A/B harness runs produced "
            "different experiment summaries"
        )


def collect_violations(report: dict, require: "Sequence[str]" = ()) -> "list[str]":
    """Every violated contract bit in ``report`` (empty list means green)."""
    violations: "list[str]" = []
    for name in require:
        if name not in report:
            violations.append(f"{name}: required section missing from the report")

    if "tensor_ops" in report:
        _check_tensor_ops(report["tensor_ops"], violations)
    if "beam_planning" in report and not report["beam_planning"].get("plans_equal"):
        violations.append("beam_planning: batched plans differ from scalar plans")
    if "greedy_planning" in report and not report["greedy_planning"].get("plans_equal"):
        violations.append("greedy_planning: batched rollouts differ from scalar rollouts")
    if "nextitem_evaluation" in report and not report["nextitem_evaluation"].get(
        "ranks_equal"
    ):
        violations.append("nextitem_evaluation: batched ranks differ from scalar ranks")
    if "irs_stepwise_replanning" in report and not report["irs_stepwise_replanning"].get(
        "cached_paths_match_isolated"
    ):
        violations.append(
            "irs_stepwise_replanning: cached serving diverged from isolated semantics"
        )
    if "incremental_decoding" in report:
        _check_incremental(report["incremental_decoding"], violations)
    if "sharded_evaluation" in report:
        workers = report["sharded_evaluation"].get("workers", [])
        if not workers:
            violations.append("sharded_evaluation: the section recorded no thread counts")
        for row in workers:
            for bit, what in (
                ("records_equal_serial", "batched records"),
                ("stepwise_records_equal_serial", "stepwise records"),
                ("nextitem_equal_serial", "next-item metrics"),
            ):
                if not row.get(bit):
                    violations.append(
                        f"sharded_evaluation: {what} at {row.get('num_workers')} "
                        f"thread(s) differ from serial"
                    )
    if "async_serving" in report and not report["async_serving"].get(
        "responses_match_sequential"
    ):
        violations.append("async_serving: responses differ from sequential serving")
    if "replicated_serving" in report:
        _check_replicated(report["replicated_serving"], violations)
    if "distributed_serving" in report:
        _check_distributed(report["distributed_serving"], violations)
    if "observability" in report:
        _check_observability(report["observability"], violations)
    if "two_stage_retrieval" in report:
        _check_two_stage_retrieval(report["two_stage_retrieval"], violations)
    if "multi_tenant" in report:
        _check_multi_tenant(report["multi_tenant"], violations)
    return violations


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="path to a repro.perf.bench report (JSON)")
    parser.add_argument(
        "--require",
        default=None,
        help="comma-separated section names that must be present in the report",
    )
    args = parser.parse_args(argv)
    with open(args.report, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    require = (
        [name.strip() for name in args.require.split(",") if name.strip()]
        if args.require
        else []
    )
    violations = collect_violations(report, require=require)
    if violations:
        for violation in violations:
            print(f"PERF GATE FAIL: {violation}", file=sys.stderr)
        return 1
    checked = [name for name in report if isinstance(report.get(name), dict)]
    print(f"perf gate ok: {len(violations)} violation(s) across sections {checked}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
