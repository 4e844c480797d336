"""Command-line interface for regenerating the paper's tables and figures.

Examples
--------
::

    repro-irs table3 --dataset movielens --profile fast
    repro-irs figure7 --dataset lastfm
    repro-irs all --profile default --output results.txt
    repro-irs ablation-decoding --profile fast
    repro-irs ext-interactive --dataset lastfm
    repro-irs bench --profile fast
    repro-irs bench --profile scale --sections two_stage_retrieval
    repro-irs bench --sections async_serving,irs_stepwise_replanning
    repro-irs serve-sim --profile fast --arrival-rate 200 --duration 1
    repro-irs serve-sim --profile fast --retrieval cooccurrence --candidate-k 64
    repro-irs serve-sim --profile fast --replicas 2 --refit-at 0.5 --duration 2
    repro-irs serve-sim --profile fast --transport process --replicas 2 --duration 1
    repro-irs serve-sim --profile fast --trace-sample-rate 0.5 --duration 1
    repro-irs trace --profile fast --output traces.json
    repro-irs metrics --profile fast --metrics-format json --output metrics.json

``all`` regenerates every table and figure of the paper; the ``ablation-*``
and ``ext-*`` artefacts cover the design-choice ablations and the
future-work extensions (interactive simulation, knowledge graph, category
objectives, path quality) and are run individually.  ``bench`` runs the
:mod:`repro.perf.bench` contract sections — parity bits and work counts
for every layer from the tensor engine to multi-tenant serving — writes
the JSON report :mod:`repro.perf.gate` checks and prints forward /
token-work counts, cache hit rates and the gate's verdict (it measures no
timings: those are ``benchmarks/e2e``).  ``--profile fast`` maps to the
seconds-scale smoke profile and the bench/serving commands additionally
accept the bench profile names directly (``smoke`` / ``default`` /
``scale`` — ``scale`` runs the two-stage retrieval section over
10^4/10^5-item corpora, opt-in larger tiers via
``REPRO_BENCH_SCALE_TIERS``).  ``--output`` overrides the report path
(default ``BENCH_path_planning.json``), ``--sections`` restricts the run to
a comma-separated subset of sections, and ``--cprofile`` wraps the selected
sections in :mod:`cProfile` and writes a pstats dump next to the JSON
(named ``--cprofile`` because ``--profile`` already picks the corpus
profile).

``serve-sim`` offers synthetic open-loop Poisson traffic to the
asynchronous serving loop (:mod:`repro.serve`) over the bench corpus and
prints throughput, p50/p95/p99 latency and queue-depth stats.  Its knobs —
``--arrival-rate``, ``--duration``, ``--max-queue-depth``,
``--drain-deadline``, ``--admission-policy`` — resolve through the
``REPRO_*`` environment defaults exactly like the sharding flags.  With
``--replicas N`` (or ``REPRO_REPLICAS``) the traffic is served by a
:class:`~repro.replica.set.ReplicaSet` — N independently fitted backbone
replicas behind the least-loaded dispatcher — and ``--refit-at T`` (or
``REPRO_REFIT_AT``) arms a hot refit ``T`` seconds into the trace: fresh
replicas train off-path and the generation flips atomically, so the report
additionally carries the refit timings, per-generation latency and the
no-pause bit.  ``--transport process`` (or ``REPRO_TRANSPORT``) moves the
replicas into forked worker processes behind the binary wire protocol
(:mod:`repro.distributed`): one :class:`~repro.distributed.RemoteReplicaSet`
front-end keeps the same dispatcher surface, heartbeats feed the load
signals (``--heartbeat-interval``), and a refit ships versioned artifacts
to standby workers instead of retraining in-process.  Bad knob
combinations (``--replicas 0``, ``--refit-at`` at/past ``--duration``)
exit nonzero with a clear ``ConfigurationError`` before any model trains.

Scaling knobs (``--num-workers``, ``--shard-backend``, ``--vocab-shards``,
``--rollout-chunk-size``) configure the sharded execution subsystem
(:mod:`repro.shard`) for the paper artefacts; results are bit-identical to
the serial defaults, only throughput changes.  ``bench`` honours
``--shard-backend`` / ``--vocab-shards`` and warns about the rest (its
sharded section sweeps a fixed 1/2/4 worker grid); ``serve-sim`` honours
``--num-workers`` / ``--shard-backend`` / ``--vocab-shards`` and warns
about ``--rollout-chunk-size`` (it drives ``next_step`` serving, not
chunked evaluation rollouts).

Two-stage retrieval (:mod:`repro.retrieval`): ``serve-sim --retrieval
SPEC`` plugs a candidate generator (``none`` | ``full`` | ``ann`` |
``cooccurrence``) into the serving planner so each plan scores exactly
over a per-context shortlist instead of the full vocabulary;
``--candidate-k`` sizes the shortlist (default 256).  The report gains a
``retrieval`` block with the request/fallback/candidate counters.

Observability (:mod:`repro.obs`): ``serve-sim --trace-sample-rate R``
turns request tracing on for the run (deterministic sampling at rate
``R``) and adds an ``observability`` block to the report.  ``trace``
serves a short traced open-loop workload and dumps every span as JSON;
``metrics`` drives the same workload and dumps the process metrics
registry (Prometheus text by default, ``--metrics-format json`` for the
snapshot dict).  ``--log-level`` (or ``REPRO_LOG_LEVEL``) sets the
``repro.*`` logger threshold for any command.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import add_config_arguments
from repro.experiments import ablations as ablation_functions
from repro.experiments import extensions as extension_functions
from repro.experiments import figures as figure_functions
from repro.experiments import tables as table_functions
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import ExperimentPipeline
from repro.experiments.reporting import format_series, format_table

__all__ = ["main", "run", "build_parser"]

_TABLES = {
    "table1": "Table I - dataset statistics",
    "table2": "Table II - IRS evaluator selection",
    "table3": "Table III - main comparison (M=20)",
    "table4": "Table IV - next-item performance",
    "table5": "Table V - PIM mask ablation",
    "table6": "Table VI - hyperparameters",
    "table7": "Table VII - case study",
}
_FIGURES = {
    "figure6": "Figure 6 - SR_M vs path length",
    "figure7": "Figure 7 - aggressiveness degree",
    "figure8": "Figure 8 - impressionability distribution",
    "figure9": "Figure 9 - stepwise evolution",
}
_ABLATIONS = {
    "ablation-embedding": "Ablation - item-embedding initialisation",
    "ablation-padding": "Ablation - pre vs post padding",
    "ablation-decoding": "Ablation - greedy vs beam-search decoding",
}
_EXTENSIONS = {
    "ext-interactive": "Extension - interactive (accept/reject) simulation",
    "ext-kg": "Extension - knowledge-graph path finding",
    "ext-category": "Extension - category objectives",
    "ext-quality": "Extension - path quality report",
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-irs",
        description="Reproduce the tables and figures of 'Influential Recommender System' (ICDE 2023).",
    )
    parser.add_argument(
        "artefact",
        choices=sorted(_TABLES)
        + sorted(_FIGURES)
        + sorted(_ABLATIONS)
        + sorted(_EXTENSIONS)
        + ["all", "bench", "serve-sim", "trace", "metrics"],
        help=(
            "which table/figure/ablation/extension to regenerate ('all' covers the "
            "paper artefacts; 'bench' runs the performance harness; 'serve-sim' "
            "drives the async serving loop with synthetic traffic; 'trace' / "
            "'metrics' serve a short traced workload and dump spans / the "
            "metrics registry)"
        ),
    )
    parser.add_argument("--dataset", choices=["movielens", "lastfm"], default="movielens")
    parser.add_argument(
        "--profile",
        default="default",
        help=(
            "'fast' runs a seconds-scale smoke configuration; bench / serve-sim / "
            "trace / metrics also accept the bench profiles directly "
            "(smoke | default | scale)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=None, help="override the corpus scale")
    parser.add_argument(
        "--data-directory",
        default=None,
        help="path to a real MovieLens-1M / Lastfm dump (otherwise synthetic data is used)",
    )
    parser.add_argument("--output", default=None, help="write the report to this file as well")
    parser.add_argument(
        "--rollout-chunk-size",
        default=None,
        help="evaluation instances per batched Algorithm-1 rollout call (default: 64)",
    )
    parser.add_argument(
        "--sections",
        default=None,
        help="bench only: comma-separated subset of bench sections to run (default: all)",
    )
    parser.add_argument(
        "--cprofile",
        action="store_true",
        help=(
            "bench only: run the selected sections under cProfile and write a "
            "pstats dump next to the JSON output (<output>.pstats). Named "
            "--cprofile because --profile already selects the corpus profile."
        ),
    )
    # The resolver-table knobs (repro.config): one argparse group per
    # subsystem — traffic, sharding, replication, transport, retrieval,
    # tenancy — generated from the same declarative table the resolve_*
    # functions and $REPRO_* environment fallbacks read, so a knob's flag,
    # env var, default and help text can never drift apart.
    add_config_arguments(parser)
    # Observability knobs (repro.obs) — raw strings validated by the obs
    # config resolvers; --log-level applies to every command.
    parser.add_argument(
        "--log-level",
        default=None,
        help=(
            "logging threshold for the repro.* loggers, as a name (DEBUG, "
            "INFO, ...) or numeric level (default: $REPRO_LOG_LEVEL or INFO)"
        ),
    )
    parser.add_argument(
        "--trace-sample-rate",
        default=None,
        help=(
            "serve-sim / trace: turn request tracing on and sample this "
            "fraction of requests, deterministically, in [0, 1] "
            "(default for 'trace': $REPRO_TRACE_SAMPLE_RATE or 1.0)"
        ),
    )
    parser.add_argument(
        "--metrics-format",
        choices=["prometheus", "json"],
        default="prometheus",
        help="metrics only: dump format for the registry snapshot",
    )
    return parser


def _resolve_shard_args(args: argparse.Namespace) -> tuple[int, str, int, int | None]:
    """Validate the scaling flags, raising ConfigurationError on bad values.

    The integer flags are handed to the shard config resolvers as the raw
    strings argparse collected — the resolvers own the parse-and-complain
    logic (including the ``$REPRO_*`` fallbacks), so the error wording lives
    in one place.
    """
    from repro.config import resolve_num_workers, resolve_vocab_shards
    from repro.shard.config import resolve_shard_backend
    from repro.utils.exceptions import ConfigurationError

    num_workers = resolve_num_workers(args.num_workers)
    backend = resolve_shard_backend(args.shard_backend, num_workers=num_workers)
    vocab_shards = resolve_vocab_shards(args.vocab_shards)
    chunk = args.rollout_chunk_size
    if chunk is not None:
        try:
            chunk = int(chunk)
        except ValueError:
            raise ConfigurationError(
                f"--rollout-chunk-size must be an integer, got {chunk!r}"
            ) from None
        if chunk <= 0:
            raise ConfigurationError(
                f"--rollout-chunk-size must be a positive integer, got {chunk}"
            )
    return num_workers, backend, vocab_shards, chunk


def _resolve_serve_args(args: argparse.Namespace) -> dict:
    """Validate the serving flags through the serve config resolvers.

    Returns the resolved knob dict for ``serve-sim``; raises
    ``ConfigurationError`` (with the offending source named) on bad values.
    """
    from repro.config import (
        resolve_admission_policy,
        resolve_arrival_rate,
        resolve_drain_deadline,
        resolve_max_queue_depth,
        resolve_serve_duration,
    )

    return {
        "arrival_rate": resolve_arrival_rate(args.arrival_rate),
        "duration": resolve_serve_duration(args.duration),
        "max_queue_depth": resolve_max_queue_depth(args.max_queue_depth),
        "drain_deadline": resolve_drain_deadline(args.drain_deadline),
        "admission_policy": resolve_admission_policy(args.admission_policy),
    }


def _resolve_replica_args(args: argparse.Namespace, duration: float) -> dict:
    """Validate the replication flags, including the cross-flag contract.

    The resolvers own the per-knob parse-and-complain logic (and the
    ``$REPRO_REPLICAS`` / ``$REPRO_REFIT_AT`` / ``$REPRO_DISPATCH_POLICY``
    fallbacks); the cross-check that a refit must land strictly inside the
    traffic window lives here — today's knobs silently accepting bad combos
    is exactly the failure mode this closes.
    """
    from repro.config import (
        resolve_dispatch_policy,
        resolve_num_replicas,
        resolve_refit_at,
    )
    from repro.utils.exceptions import ConfigurationError

    num_replicas = resolve_num_replicas(args.replicas)
    refit_at = resolve_refit_at(args.refit_at)
    dispatch_policy = resolve_dispatch_policy(args.dispatch_policy)
    if refit_at is not None and refit_at >= duration:
        raise ConfigurationError(
            f"refit_at ({refit_at}s) must fall strictly inside the traffic "
            f"window (--duration {duration}s): a refit armed at or past the end "
            f"of the trace would never overlap serving"
        )
    return {
        "num_replicas": num_replicas,
        "refit_at": refit_at,
        "dispatch_policy": dispatch_policy,
    }


def _resolve_bench_profile(value: str) -> str:
    """Map the CLI ``--profile`` spelling onto a bench profile.

    ``fast`` stays an alias of the smoke profile for the bench/serving
    commands; anything else goes through
    :func:`repro.perf.bench.resolve_profile`, which raises
    ``ConfigurationError`` listing the known names — eagerly, before any
    model trains.
    """
    from repro.perf.bench import resolve_profile

    return resolve_profile("smoke" if value == "fast" else value)


def _resolve_retrieval_args(args: argparse.Namespace):
    """Validate the retrieval flags; returns ``(spec, candidate_k, generator)``.

    ``generator`` is ``None`` for the exact (``none``) spec; the spec name
    and shortlist size resolve through :mod:`repro.config` so unknown
    backends fail with the known-spec list before any model trains.
    """
    from repro.config import resolve_retrieval_spec
    from repro.retrieval import make_generator
    from repro.utils.exceptions import ConfigurationError

    spec = resolve_retrieval_spec(args.retrieval)
    candidate_k = args.candidate_k
    if candidate_k is not None and spec == "none":
        raise ConfigurationError(
            "--candidate-k sizes the retrieval shortlist and requires "
            "--retrieval (full | ann | cooccurrence)"
        )
    if candidate_k is None:
        candidate_k = 256
    else:
        try:
            candidate_k = int(candidate_k)
        except ValueError:
            raise ConfigurationError(
                f"--candidate-k must be an integer, got {candidate_k!r}"
            ) from None
    generator = make_generator(spec, num_candidates=candidate_k)
    return spec, candidate_k, generator


def _make_config(args: argparse.Namespace) -> ExperimentConfig:
    from repro.utils.exceptions import ConfigurationError

    if args.profile not in ("default", "fast"):
        raise ConfigurationError(
            f"unknown profile {args.profile!r} for paper artefacts: choose "
            "'default' or 'fast' (the bench profiles 'smoke'/'scale' apply "
            "to the bench and serving commands only)"
        )
    if args.profile == "fast":
        config = ExperimentConfig.fast(dataset=args.dataset, seed=args.seed)
    else:
        config = ExperimentConfig.default(dataset=args.dataset, seed=args.seed)
    if args.scale is not None:
        config.scale = args.scale
    if args.data_directory is not None:
        config.data_directory = args.data_directory
    num_workers, backend, vocab_shards, chunk = _resolve_shard_args(args)
    config.num_workers = num_workers
    config.shard_backend = backend
    config.vocab_shards = vocab_shards
    if chunk is not None:
        config.rollout_chunk_size = chunk
    return config


def _render(artefact: str, pipeline: ExperimentPipeline, config: ExperimentConfig) -> str:
    if artefact == "table1":
        rows = table_functions.table1_dataset_statistics(
            [config, config.with_dataset("lastfm" if config.dataset == "movielens" else "movielens")]
        )
        return format_table(rows, title=_TABLES[artefact])
    if artefact == "table2":
        return format_table(table_functions.table2_evaluator_selection(pipeline), title=_TABLES[artefact])
    if artefact == "table3":
        return format_table(table_functions.table3_main_comparison(pipeline), title=_TABLES[artefact])
    if artefact == "table4":
        return format_table(table_functions.table4_next_item(pipeline), title=_TABLES[artefact])
    if artefact == "table5":
        return format_table(table_functions.table5_mask_ablation(pipeline), title=_TABLES[artefact])
    if artefact == "table6":
        return format_table(table_functions.table6_hyperparameters(pipeline), title=_TABLES[artefact])
    if artefact == "table7":
        return format_table(table_functions.table7_case_study(pipeline), title=_TABLES[artefact])
    if artefact == "figure6":
        curves = figure_functions.figure6_success_vs_length(pipeline)
        series = {name: list(values.values()) for name, values in curves.items()}
        return format_series(series, x_label="length index", title=_FIGURES[artefact])
    if artefact == "figure7":
        sweep = figure_functions.figure7_aggressiveness(pipeline)
        parts = []
        for name, rows in sweep.items():
            parts.append(format_table(rows, title=f"{_FIGURES[artefact]} [{name}]"))
        return "\n\n".join(parts)
    if artefact == "figure8":
        data = figure_functions.figure8_impressionability_distribution(pipeline)
        rows = [
            {"bin_left": round(left, 3), "bin_right": round(right, 3), "count": count}
            for left, right, count in zip(
                data["histogram_edges"][:-1], data["histogram_edges"][1:], data["histogram_counts"]
            )
        ]
        summary = f"mean={data['mean']:.3f} std={data['std']:.3f}"
        if "correlation_with_ground_truth" in data:
            summary += f" corr(ground truth)={data['correlation_with_ground_truth']:.3f}"
        return format_table(rows, title=f"{_FIGURES[artefact]} ({summary})")
    if artefact == "figure9":
        evolution = figure_functions.figure9_stepwise_evolution(pipeline)
        parts = []
        for name, curves in evolution.items():
            parts.append(format_series(curves, title=f"{_FIGURES[artefact]} [{name}]"))
        return "\n\n".join(parts)
    if artefact == "ablation-embedding":
        rows = ablation_functions.ablation_embedding_init(pipeline)
        return format_table(rows, title=_ABLATIONS[artefact])
    if artefact == "ablation-padding":
        rows = ablation_functions.ablation_padding_scheme(pipeline)
        return format_table(rows, title=_ABLATIONS[artefact])
    if artefact == "ablation-decoding":
        rows = ablation_functions.ablation_decoding(pipeline)
        return format_table(rows, title=_ABLATIONS[artefact])
    if artefact == "ext-interactive":
        rows = extension_functions.extension_interactive_comparison(pipeline)
        return format_table(rows, title=_EXTENSIONS[artefact])
    if artefact == "ext-kg":
        rows = extension_functions.extension_kg_comparison(pipeline)
        return format_table(rows, title=_EXTENSIONS[artefact])
    if artefact == "ext-category":
        rows = extension_functions.extension_category_objectives(pipeline)
        return format_table(rows, title=_EXTENSIONS[artefact])
    if artefact == "ext-quality":
        rows = extension_functions.extension_path_quality_report(pipeline)
        return format_table(rows, title=_EXTENSIONS[artefact])
    raise ValueError(f"unknown artefact '{artefact}'")


def _run_bench(args: argparse.Namespace) -> int:
    """The ``bench`` artefact (also ``python -m repro.perf.bench``): run the
    contract sections, print the work counts and the gate's verdict."""
    from repro.perf.bench import format_summary, run_benchmarks

    # The harness always benchmarks its fixed-seed synthetic corpus; say so
    # loudly instead of silently ignoring dataset-shaping options.
    ignored = [
        name
        for name, value, default in (
            ("--dataset", args.dataset, "movielens"),
            ("--seed", args.seed, 0),
            ("--scale", args.scale, None),
            ("--data-directory", args.data_directory, None),
        )
        if value != default
    ]
    if ignored:
        print(
            f"warning: bench ignores {', '.join(ignored)} — it always runs the "
            "fixed-seed synthetic perf corpus (see repro.perf.bench)",
            file=sys.stderr,
        )
    # The sharded_evaluation section always sweeps 1/2/4 workers and the
    # other sections are fixed serial workloads, so only --shard-backend and
    # --vocab-shards shape the bench; say so for the rest.
    ignored_shard = [
        name
        for name, value in (
            ("--num-workers", args.num_workers),
            ("--rollout-chunk-size", args.rollout_chunk_size),
        )
        if value is not None
    ]
    if ignored_shard:
        print(
            f"warning: bench ignores {', '.join(ignored_shard)} — the "
            "sharded_evaluation section sweeps a fixed 1/2/4 worker grid "
            "(--shard-backend and --vocab-shards do apply)",
            file=sys.stderr,
        )
    # Validate the flags eagerly (clear ConfigurationError before minutes of
    # benchmarking) but hand run_benchmarks the RAW backend value: the
    # sharded section resolves it against its own 4-worker sweep, so an
    # omitted flag keeps the documented thread default instead of the
    # num_workers=1 'serial' resolution.
    _, _, vocab_shards, _ = _resolve_shard_args(args)
    from repro.perf.bench import resolve_sections

    sections = args.sections.split(",") if args.sections else None
    resolve_sections(sections)  # fail on typos before training the model
    profile = _resolve_bench_profile(args.profile)  # and on unknown profiles
    output = args.output or "BENCH_path_planning.json"
    with open(output, "a", encoding="utf-8"):  # and on an unwritable path
        pass

    def run() -> dict:
        return run_benchmarks(
            profile=profile,
            output=output,
            shard_backend=args.shard_backend,
            vocab_shards=vocab_shards,
            sections=sections,
        )

    if args.cprofile:
        from repro.perf.bench import profile_benchmarks

        report, stats_path = profile_benchmarks(run, output)
        print(f"cProfile stats written to {stats_path}", file=sys.stderr)
    else:
        report = run()
    print(format_summary(report))
    print(f"report written to {output}")
    return 0


def _run_serve_sim_ab(args: argparse.Namespace, tenant_count: int) -> int:
    """``serve-sim --tenants 2``: the online A/B harness over one fleet.

    Fits one IRN backbone, binds two tenants to the serving fleet — the
    ``control`` arm serves the backbone's objective-blind top-1
    recommendations, the ``treatment`` arm serves the beam planner's
    objective-aware steps — and drives identical simulated user cohorts
    (:mod:`repro.simulation`) through the typed ``serve`` surface, one
    tenanted request per session step.  Prints per-arm interactive
    metrics, the treatment's uplift, and each tenant's p50/p95 serving
    latency graded against ``--slo-p95``.
    """
    import json

    from repro.config import (
        resolve_cohort_sessions,
        resolve_heartbeat_interval,
        resolve_slo_p95,
        resolve_transport,
    )
    from repro.core.beam import BeamSearchPlanner
    from repro.core.irn import IRN
    from repro.evaluation.evaluator import IRSEvaluator
    from repro.evaluation.protocol import sample_objectives
    from repro.perf.bench import build_bench_split, machine_info
    from repro.perf.bench import bench_config as resolve_bench_config
    from repro.tenant import TenantRegistry
    from repro.tenant.ab import TenantArm, run_ab
    from repro.utils.exceptions import ConfigurationError

    if tenant_count != 2:
        raise ConfigurationError(
            f"--tenants {tenant_count} is not supported: the A/B harness "
            "compares exactly 2 tenants (1 = single-tenant serve-sim)"
        )
    serve = _resolve_serve_args(args)
    replication = _resolve_replica_args(args, serve["duration"])
    transport = resolve_transport(args.transport)
    heartbeat_interval = resolve_heartbeat_interval(args.heartbeat_interval)
    cohort_sessions = resolve_cohort_sessions(args.cohort_sessions)
    slo_p95_ms = 1000.0 * resolve_slo_p95(args.slo_p95)
    num_workers, backend, vocab_shards, _ = _resolve_shard_args(args)
    retrieval_spec, candidate_k, generator = _resolve_retrieval_args(args)
    if args.arrival_rate is not None or args.duration is not None:
        print(
            "warning: the A/B harness drives closed-loop session traffic; "
            "--arrival-rate/--duration do not apply under --tenants 2",
            file=sys.stderr,
        )

    bench_config = resolve_bench_config(_resolve_bench_profile(args.profile))
    split = build_bench_split(bench_config)
    instances = sample_objectives(
        split,
        min_objective_interactions=2,
        seed=args.seed,
        max_instances=cohort_sessions,
    )
    print(
        f"training the shared IRN backbone and fitting two tenants "
        f"({len(instances)} sessions per cohort)...",
        file=sys.stderr,
    )
    backbone = IRN(**bench_config["irn"]).fit(split)
    evaluator = IRSEvaluator(backbone)

    def make_planner():
        # The treatment arm plans over retrieval shortlists when --retrieval
        # is given; the shared generator is fit once and reused per planner.
        return BeamSearchPlanner(
            backbone,
            beam_width=bench_config["beam_width"],
            branch_factor=bench_config["branch_factor"],
            max_length=bench_config["max_path_length"],
            num_workers=num_workers,
            shard_backend=backend,
            vocab_shards=vocab_shards,
            candidate_generator=generator,
        ).fit(split)

    def tenant_factory():
        registry = TenantRegistry()
        registry.add("control", backbone)
        registry.add("treatment", make_planner())
        return registry

    replicated = replication["num_replicas"] > 1 or transport == "process"
    front_end = _build_front_end(
        make_planner,
        serve,
        replication,
        replicated=replicated,
        transport=transport,
        heartbeat_interval=heartbeat_interval,
        tenant_factory=tenant_factory,
    )

    with front_end:
        ab_report = run_ab(
            front_end,
            TenantArm("control"),
            TenantArm("treatment"),
            instances,
            evaluator,
            max_steps=2 * bench_config["max_path_length"],
            seed=args.seed,
            slo_p95_ms=slo_p95_ms,
        )
        fleet_stats = front_end.stats()

    report = {
        "harness": "ab",
        "machine": machine_info(),
        "tenants": tenant_count,
        "cohort_sessions": len(instances),
        "transport": {"kind": transport},
        "replication": {**replication, "enabled": replicated},
        "retrieval": {"spec": retrieval_spec, "candidate_k": candidate_k},
        "ab": ab_report.summary(),
        "fleet_tenants": fleet_stats.get("tenants", {}),
    }
    for row in ab_report.rows():
        slo = (
            f", p95 {'within' if row.get('slo_met') else 'OVER'} "
            f"SLO {row['slo_p95_ms']:.0f}ms"
            if "slo_met" in row
            else ""
        )
        print(
            f"{row['framework']:>9} (tenant {row['tenant']}): interactive SR "
            f"{row['interactive_SR']:.4f}, acceptance {row['acceptance_rate']:.4f} "
            f"over {row['requests']} requests | latency ms p50 {row['p50_ms']} "
            f"p95 {row['p95_ms']}{slo}"
        )
    print(
        f"uplift (treatment - control interactive SR): {ab_report.uplift:+.4f} "
        f"across {len(instances)} identically-seeded sessions per arm"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    return 0


def _build_front_end(
    planner_factory,
    serve: dict,
    replication: dict,
    *,
    replicated: bool,
    transport: str,
    heartbeat_interval: float,
    tracer=None,
    tenant_factory=None,
):
    """The one place ``--transport`` / ``--replicas`` pick a serving front-end.

    Not ``replicated``: a single :class:`~repro.serve.loop.ServingLoop` over
    one ``planner_factory()`` planner.  Otherwise a fleet calling the
    factory itself — a :class:`~repro.distributed.RemoteReplicaSet` under
    ``transport == "process"`` (one forked worker per replica), the
    in-process :class:`~repro.replica.ReplicaSet` if not.
    """
    kwargs = dict(
        max_queue_depth=serve["max_queue_depth"],
        admission_policy=serve["admission_policy"],
        drain_deadline=serve["drain_deadline"],
        tracer=tracer,
    )
    if not replicated:
        from repro.serve import ServingLoop

        tenants = None if tenant_factory is None else tenant_factory()
        return ServingLoop(planner_factory(), tenants=tenants, **kwargs)
    kwargs.update(
        num_replicas=replication["num_replicas"],
        dispatch_policy=replication["dispatch_policy"],
        tenant_factory=tenant_factory,
    )
    if transport == "process":
        from repro.distributed import RemoteReplicaSet

        print(
            f"spawning {replication['num_replicas']} worker process(es) "
            f"over the binary transport...",
            file=sys.stderr,
        )
        return RemoteReplicaSet(
            planner_factory, heartbeat_interval=heartbeat_interval, **kwargs
        )
    from repro.replica import ReplicaSet

    print(
        f"training {replication['num_replicas']} replica backbone(s)...",
        file=sys.stderr,
    )
    return ReplicaSet(planner_factory, **kwargs)


def _run_serve_sim(args: argparse.Namespace) -> int:
    """The ``serve-sim`` artefact: synthetic traffic through the serving loop.

    Builds the bench corpus (smoke profile under ``--profile fast``), fits
    the IRN, wraps a sharded beam planner in a
    :class:`~repro.serve.loop.ServingLoop` and offers open-loop Poisson
    traffic for ``--duration`` seconds at ``--arrival-rate`` requests/sec.
    With ``--replicas`` > 1 or ``--refit-at`` the traffic is served by a
    :class:`~repro.replica.set.ReplicaSet` instead (one independently
    fitted backbone per replica; the refit trains fresh ones off-path and
    flips the generation mid-trace).  Prints the latency/throughput/queue
    report (and writes it as JSON to ``--output`` when given).
    """
    import json

    from repro.core.beam import BeamSearchPlanner
    from repro.core.irn import IRN
    from repro.evaluation.protocol import sample_objectives
    from repro.perf.bench import build_bench_split, machine_info
    from repro.perf.bench import bench_config as resolve_bench_config
    from repro.config import (
        resolve_heartbeat_interval,
        resolve_tenants,
        resolve_transport,
    )
    from repro.serve import run_open_loop

    tenant_count = resolve_tenants(args.tenants)
    if tenant_count > 1:
        return _run_serve_sim_ab(args, tenant_count)

    serve = _resolve_serve_args(args)
    replication = _resolve_replica_args(args, serve["duration"])
    # Transport knobs validate eagerly (before any model trains), same as
    # every other serve-sim flag.
    transport = resolve_transport(args.transport)
    heartbeat_interval = resolve_heartbeat_interval(args.heartbeat_interval)
    if args.heartbeat_interval is not None and transport != "process":
        print(
            "warning: --heartbeat-interval only applies under --transport "
            "process; the in-process fleet has no heartbeats",
            file=sys.stderr,
        )
    num_workers, backend, vocab_shards, _ = _resolve_shard_args(args)
    retrieval_spec, candidate_k, generator = _resolve_retrieval_args(args)
    tracer = None
    if args.trace_sample_rate is not None:
        from repro.obs import Tracer
        from repro.obs.config import resolve_trace_sample_rate

        tracer = Tracer(
            enabled=True, sample_rate=resolve_trace_sample_rate(args.trace_sample_rate)
        )
    if args.rollout_chunk_size is not None:
        print(
            "warning: serve-sim ignores --rollout-chunk-size — it drives "
            "next_step serving traffic, not chunked evaluation rollouts",
            file=sys.stderr,
        )
    bench_config = resolve_bench_config(_resolve_bench_profile(args.profile))
    split = build_bench_split(bench_config)
    instances = sample_objectives(
        split,
        min_objective_interactions=2,
        seed=args.seed,
        max_instances=bench_config["num_instances"],
    )
    contexts = [(list(inst.history), inst.objective, inst.user_index) for inst in instances]

    def make_planner(backbone):
        # The generator (when any) is shared across replicas/refits: the
        # first fit trains it, later planner fits reuse it, so every
        # generation serves from one identical shortlist index.
        return BeamSearchPlanner(
            backbone,
            beam_width=bench_config["beam_width"],
            branch_factor=bench_config["branch_factor"],
            max_length=bench_config["max_path_length"],
            num_workers=num_workers,
            shard_backend=backend,
            vocab_shards=vocab_shards,
            candidate_generator=generator,
        ).fit(split)

    replicated = (
        replication["num_replicas"] > 1
        or replication["refit_at"] is not None
        or transport == "process"
    )

    def planner_factory():
        # One independently fitted backbone per call — per replica (and per
        # refit) in-process: deterministic config + seed, so every
        # generation's weights are identical and routing stays bit-exact.
        # Under the process transport the factory runs ONCE per generation —
        # fork hands every worker its copy and refits ship versioned
        # artifacts.
        return make_planner(IRN(**bench_config["irn"]).fit(split))

    front_end = _build_front_end(
        planner_factory,
        serve,
        replication,
        replicated=replicated,
        transport=transport,
        heartbeat_interval=heartbeat_interval,
        tracer=tracer,
    )
    traffic = dict(
        arrival_rate=serve["arrival_rate"],
        duration=serve["duration"],
        seed=args.seed,
        max_length=bench_config["max_path_length"],
    )
    with front_end:
        if replicated:
            from repro.replica import run_replicated_open_loop

            report = run_replicated_open_loop(
                front_end, contexts, refit_at=replication["refit_at"], **traffic
            )
        else:
            report = run_open_loop(front_end, contexts, **traffic)
    planner = front_end.planner
    # Per-replica queue count (each replica's loop mirrors the planner's
    # worker partition); the total across replicas is in "replication".
    num_queues = planner.num_workers if replicated else front_end.num_queues
    report["machine"] = machine_info()
    report["sharding"] = {
        "num_workers": planner.num_workers,
        "backend": planner.shard_backend,
        "vocab_shards": planner.vocab_shards,
        "num_queues": num_queues,
    }
    report["replication"] = {**replication, "enabled": replicated}
    report["transport"] = {"kind": transport}
    if transport == "process":
        report["transport"]["heartbeat_interval"] = heartbeat_interval
        report["transport"].update(front_end.stats()["transport"])
    report["retrieval"] = {"spec": retrieval_spec, "candidate_k": candidate_k}
    if generator is not None and hasattr(planner, "cache_info"):
        # Worker-process planners keep their caches remote; the proxy has
        # no cache_info, so the retrieval metrics stay worker-side there.
        report["retrieval"]["metrics"] = planner.cache_info().get("retrieval")
    if tracer is not None:
        report["observability"] = {
            "sample_rate": tracer.sample_rate,
            "traces_retained": len(tracer.trace_ids()),
            "counters": tracer.counters(),
            "span_summary": tracer.summary(),
        }
    latency = report["latency_ms"]
    print(
        f"async serving sim: {report['admitted_requests']}/{report['offered_requests']} "
        f"requests admitted ({report['rejected_requests']} rejected) over "
        f"{report['duration_seconds']}s at {report['arrival_rate']} req/s offered"
    )
    print(
        f"throughput {report['throughput_rps']} req/s | latency ms "
        f"p50 {latency['p50']} p95 {latency['p95']} p99 {latency['p99']} "
        f"(mean {latency['mean']}, max {latency['max']})"
    )
    print(
        f"queues: {num_queues} x depth<={serve['max_queue_depth']} "
        f"({serve['admission_policy']}), depth max {report['queue_depth']['max']} "
        f"mean {report['queue_depth']['mean']}, micro-batch mean "
        f"{report['micro_batches']['mean_size']} max {report['micro_batches']['max_size']}"
    )
    if replicated:
        dispatch = report["dispatch"]
        print(
            f"replicas: {replication['num_replicas']} ({replication['dispatch_policy']}), "
            f"picks {dispatch['picks']}, generations served "
            f"{report['generations_served']}, no pause: {report['no_pause']}"
        )
        if "refit" in report:
            refit = report["refit"]
            print(
                f"hot refit: generation {refit['generation_from']} -> "
                f"{refit['generation_to']} trained off-path in "
                f"{refit['train_seconds']}s, flipped in "
                f"{round(1e6 * refit['flip_seconds'], 1)} us with "
                f"{refit['inflight_at_flip']} request(s) in flight "
                f"(completed during trace: {refit['completed_during_trace']})"
            )
    if transport == "process":
        transport_stats = report["transport"]
        print(
            f"transport: process ({replication['num_replicas']} worker(s), "
            f"heartbeat every {heartbeat_interval}s), "
            f"{transport_stats.get('requests_sent', 0)} request(s) shipped, "
            f"{transport_stats.get('heartbeats', 0)} heartbeat(s), "
            f"{transport_stats.get('redispatched', 0)} re-dispatched"
        )
    if generator is not None:
        metrics = report["retrieval"].get("metrics") or {}
        print(
            f"retrieval: {retrieval_spec} shortlists (k={candidate_k}), "
            f"{metrics.get('requests', 0)} request(s), "
            f"{metrics.get('fallbacks', 0)} fallback(s) to exact scoring"
        )
    if tracer is not None:
        counters = report["observability"]["counters"]
        print(
            f"tracing: sample rate {tracer.sample_rate}, "
            f"{report['observability']['traces_retained']} trace(s) retained, "
            f"{counters['spans']} span(s) recorded, {counters['sampled_out']} sampled out"
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.output}")
    return 0


def _drive_traced_workload(args: argparse.Namespace, sample_rate: "float | None"):
    """Serve a short traced open-loop workload over the bench corpus.

    Shared by the ``trace`` and ``metrics`` artefacts: builds the bench
    split (smoke under ``--profile fast``), fits one IRN + planner, and
    offers a fixed-count seeded Poisson trace through a
    :class:`~repro.serve.loop.ServingLoop` with tracing enabled.  Returns
    ``(tracer, open-loop report)``; being seeded and fixed-count, the trace
    IDs (and the artefact) are identical across runs on any machine.
    """
    from repro.core.beam import BeamSearchPlanner
    from repro.core.irn import IRN
    from repro.evaluation.protocol import sample_objectives
    from repro.obs import Tracer
    from repro.perf.bench import build_bench_split
    from repro.perf.bench import bench_config as resolve_bench_config
    from repro.config import resolve_arrival_rate
    from repro.serve import ServingLoop, run_open_loop

    num_workers, backend, vocab_shards, _ = _resolve_shard_args(args)
    bench_config = resolve_bench_config(_resolve_bench_profile(args.profile))
    split = build_bench_split(bench_config)
    instances = sample_objectives(
        split,
        min_objective_interactions=2,
        seed=args.seed,
        max_instances=bench_config["num_instances"],
    )
    contexts = [(list(inst.history), inst.objective, inst.user_index) for inst in instances]
    planner = BeamSearchPlanner(
        IRN(**bench_config["irn"]).fit(split),
        beam_width=bench_config["beam_width"],
        branch_factor=bench_config["branch_factor"],
        max_length=bench_config["max_path_length"],
        num_workers=num_workers,
        shard_backend=backend,
        vocab_shards=vocab_shards,
    ).fit(split)
    tracer = Tracer(enabled=True, sample_rate=sample_rate)
    with ServingLoop(planner, tracer=tracer) as loop:
        report = run_open_loop(
            loop,
            contexts,
            arrival_rate=resolve_arrival_rate(args.arrival_rate),
            num_requests=bench_config["serve_requests_per_context"] * len(contexts),
            seed=args.seed,
            max_length=bench_config["max_path_length"],
        )
    return tracer, report


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` artefact: dump every span of a traced workload as JSON."""
    from repro.obs.config import resolve_trace_sample_rate
    from repro.obs.export import traces_to_json

    sample_rate = resolve_trace_sample_rate(args.trace_sample_rate)
    tracer, report = _drive_traced_workload(args, sample_rate)
    payload = traces_to_json(tracer)
    counters = tracer.counters()
    print(
        f"traced {len(tracer.trace_ids())} of {report['admitted_requests']} "
        f"request(s) at sample rate {tracer.sample_rate} "
        f"({counters['spans']} span(s) recorded)",
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"traces written to {args.output}")
    else:
        print(payload)
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    """The ``metrics`` artefact: dump the process metrics registry.

    Drives the same traced workload as ``trace`` first, so the dump shows a
    populated registry (serving latency histograms, queue/admission
    counters, cache and KV stats) rather than an empty one.
    """
    from repro.obs.export import metrics_to_json, metrics_to_prometheus

    _tracer, report = _drive_traced_workload(args, sample_rate=1.0)
    if args.metrics_format == "json":
        payload = metrics_to_json()
    else:
        payload = metrics_to_prometheus().rstrip("\n")
    print(
        f"registry snapshot after serving {report['admitted_requests']} request(s)",
        file=sys.stderr,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"metrics written to {args.output}")
    else:
        print(payload)
    return 0


def run(argv: list[str] | None = None) -> int:
    """Console entry point: like :func:`main`, but configuration mistakes
    exit nonzero with one clear ``error:`` line instead of a traceback
    (``main`` keeps raising so programmatic callers and tests can match the
    exception)."""
    from repro.utils.exceptions import ConfigurationError

    try:
        return main(argv)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Logging threshold applies before any model trains, so admission /
    # refit / generation-guard log lines honour it from the first request.
    from repro.utils.logging import configure_logging

    configure_logging(args.log_level)
    if args.artefact == "bench":
        return _run_bench(args)
    if args.artefact == "serve-sim":
        return _run_serve_sim(args)
    if args.artefact == "trace":
        return _run_trace(args)
    if args.artefact == "metrics":
        return _run_metrics(args)
    config = _make_config(args)
    pipeline = ExperimentPipeline(config)

    artefacts = sorted(_TABLES) + sorted(_FIGURES) if args.artefact == "all" else [args.artefact]
    reports = [_render(artefact, pipeline, config) for artefact in artefacts]
    report = "\n\n".join(reports)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
