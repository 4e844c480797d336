"""The serving commands: ``serve-sim`` (plain and A/B), ``trace``, ``metrics``.

All four serve a ``--profile`` corpus (:mod:`repro.cli.profiles`) through
one :class:`_Workload` fixture and hand resolved knob groups
(:func:`repro.config.group_of`) whole to the planner, the loop and the
fleets — a row a command names cannot be resolved and then not passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from repro.cli.profiles import build_bench_split, machine_info, profile_config
from repro.config import group_of
from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.evaluation.protocol import sample_objectives
from repro.obs import Tracer
from repro.retrieval import make_generator
from repro.serve import ServingLoop, run_open_loop

__all__ = ["run_serve_sim", "run_trace", "run_metrics"]


class _Workload:
    """The profile's corpus, sampled instances and a planner factory built
    from the retrieval knobs (``serve-sim`` only; ``trace`` / ``metrics``
    plan exactly)."""

    def __init__(self, args: argparse.Namespace, knobs: dict, max_instances=None) -> None:
        # The generator (when any) is shared across workers and refits: the
        # first planner fit trains it, later ones reuse it, so every
        # generation serves from one identical shortlist index.
        self.generator = make_generator(
            knobs.get("retrieval_spec"), num_candidates=knobs.get("candidate_k")
        )
        self.config = profile_config(args.profile)
        self.split = build_bench_split(self.config)
        self.instances = sample_objectives(
            self.split,
            min_objective_interactions=2,
            seed=args.seed,
            max_instances=max_instances or self.config["num_instances"],
        )
        self.contexts = [
            (list(inst.history), inst.objective, inst.user_index) for inst in self.instances
        ]
        self.max_length = self.config["max_path_length"]

    def backbone(self) -> IRN:
        """One freshly fitted IRN: deterministic config + seed, so every
        call's weights are identical and routing stays bit-exact."""
        return IRN(**self.config["irn"]).fit(self.split)

    def planner(self, backbone: "IRN | None" = None) -> BeamSearchPlanner:
        """A fitted beam planner over ``backbone`` (default: a fresh one)."""
        return BeamSearchPlanner(
            backbone or self.backbone(),
            beam_width=self.config["beam_width"],
            branch_factor=self.config["branch_factor"],
            max_length=self.max_length,
            candidate_generator=self.generator,
        ).fit(self.split)


def _build_front_end(planner_factory, knobs: dict, *, tracer=None, tenant_factory=None):
    """The one place ``--transport`` picks a serving front-end.

    In process: a :class:`~repro.serve.loop.ServingLoop` over one
    ``planner_factory()`` planner (a refit calls the factory again).  Under
    ``--transport process``: ``--replicas`` forked workers over ONE factory
    call for generation 1 — fork hands every worker its copy — and a refit
    calls the factory in every worker, each refitting its own loop.
    """
    kwargs = dict(group_of(knobs, "admission"), tracer=tracer)
    transport = group_of(knobs, "transport")
    if transport.pop("transport") == "process":
        from repro.distributed import RemoteReplicaSet

        print(
            f"spawning {knobs['num_replicas']} worker process(es) over the binary transport...",
            file=sys.stderr,
        )
        return RemoteReplicaSet(
            planner_factory, tenant_factory=tenant_factory, **kwargs, **transport
        )
    tenants = None if tenant_factory is None else tenant_factory()
    return ServingLoop(planner_factory(), tenants=tenants, **kwargs)


def _dump(payload: str, path: "str | None", what: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"{what} written to {path}")
    else:
        print(payload)


def _write_report(report: dict, path: "str | None") -> None:
    if path:  # the sims print a summary, never the JSON itself
        _dump(json.dumps(report, indent=2, sort_keys=True), path, "report")


def _knob_blocks(knobs: dict, front_end, replicated: bool) -> dict:
    """The report blocks both ``serve-sim`` modes stamp from the knobs (and
    the member count the front-end really ran: one in process)."""
    return {
        "machine": machine_info(),
        "replication": {
            "num_replicas": getattr(front_end, "num_replicas", 1),
            "refit_at": knobs["refit_at"],
            "enabled": replicated,
        },
        "transport": {"kind": knobs["transport"]},
        "retrieval": {"spec": knobs["retrieval_spec"], "candidate_k": knobs["candidate_k"]},
    }


def _per_generation(read, planners: dict) -> "dict | None":
    """``read(planner)``'s counters summed over the generations served.

    Each generation's own counters sit under ``generations`` (keyed by
    generation number); a name (the generator's) is the first generation's.
    ``None`` when ``read`` finds no counters on any planner: a
    worker-process planner keeps its own.
    """
    generations = {}
    for generation, planner in sorted(planners.items()):
        counters = read(planner)
        if counters is not None:
            generations[str(generation)] = counters
    if not generations:
        return None
    snapshots = list(generations.values())
    total = {
        key: value if isinstance(value, str) else sum(snapshot[key] for snapshot in snapshots)
        for key, value in snapshots[0].items()
    }
    return {**total, "generations": generations}


def _decode_stats(planner) -> "dict | None":
    """The in-process backbone's token-work, by kind of forward: which decoding path planned."""
    stats = getattr(getattr(planner, "backbone", None), "decode_stats", None)
    return None if stats is None else stats.snapshot()


def _retrieval_metrics(planner) -> "dict | None":
    """The in-process planner's shortlist counters (the worker proxy has no ``cache_info``)."""
    return planner.cache_info()["retrieval"] if hasattr(planner, "cache_info") else None


def _run_ab(args: argparse.Namespace, knobs: dict) -> int:
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
    from repro.evaluation.evaluator import IRSEvaluator
    from repro.tenant import TenantRegistry
    from repro.tenant.ab import TenantArm, run_ab

    workload = _Workload(args, knobs, max_instances=knobs["cohort_sessions"])
    instances = workload.instances
    print(
        f"training the shared IRN backbone and fitting two tenants "
        f"({len(instances)} sessions per cohort)...",
        file=sys.stderr,
    )
    backbone = workload.backbone()

    def make_planner():
        return workload.planner(backbone)

    def tenant_factory():
        registry = TenantRegistry()
        registry.add("control", backbone)
        registry.add("treatment", make_planner())
        return registry

    replicated = knobs["transport"] == "process"
    front_end = _build_front_end(make_planner, knobs, tenant_factory=tenant_factory)
    with front_end:
        ab_report = run_ab(
            front_end,
            TenantArm("control"),
            TenantArm("treatment"),
            instances,
            IRSEvaluator(backbone),
            max_steps=2 * workload.max_length,
            seed=args.seed,
            slo_p95_ms=1000.0 * knobs["slo_p95"],
        )
        fleet_stats = front_end.stats()

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
    report = {
        "harness": "ab",
        "tenants": knobs["tenants"],
        "cohort_sessions": len(instances),
        **_knob_blocks(knobs, front_end, replicated),
        "ab": ab_report.summary(),
        "fleet_tenants": fleet_stats.get("tenants", {}),
    }
    _write_report(report, args.output)
    return 0


def run_serve_sim(args: argparse.Namespace, knobs: dict) -> int:
    """Synthetic open-loop Poisson traffic through a serving front-end.

    A :class:`~repro.serve.loop.ServingLoop` over one beam planner, or under
    ``--transport process`` a fleet of worker processes; ``--refit-at``
    trains a fresh backbone off-path and flips the generation mid-trace.  Prints
    the latency/throughput/queue report and writes it as JSON to
    ``--output``.
    """
    if knobs["tenants"] > 1:
        return _run_ab(args, knobs)

    tracer = None
    if args.trace_sample_rate is not None:  # the flag is what turns tracing on
        tracer = Tracer(enabled=True, sample_rate=knobs["trace_sample_rate"])
    workload = _Workload(args, knobs)
    transport = knobs["transport"]
    replicated = knobs["refit_at"] is not None or transport == "process"
    front_end = _build_front_end(workload.planner, knobs, tracer=tracer)
    traffic = dict(
        arrival_rate=knobs["arrival_rate"],
        duration=knobs["serve_duration"],
        seed=args.seed,
        max_length=workload.max_length,
    )
    with front_end:
        # each generation's planner plans on its own freshly fitted backbone
        planners = {front_end.fit_generation: front_end.planner}
        if replicated:
            from repro.replica import run_replicated_open_loop

            refit = None
            if knobs["refit_at"] is not None:
                refit = front_end.refit
                if transport != "process":
                    refit = partial(front_end.refit, workload.planner)
            report = run_replicated_open_loop(
                front_end, workload.contexts, refit_at=knobs["refit_at"], refit=refit, **traffic
            )
        else:
            report = run_open_loop(front_end, workload.contexts, **traffic)
        planners[front_end.fit_generation] = front_end.planner
    report.update(_knob_blocks(knobs, front_end, replicated))
    decode_stats = _per_generation(_decode_stats, planners)
    if decode_stats is not None:
        report["decode_stats"] = decode_stats
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
        f"queue: depth<={knobs['max_queue_depth']} "
        f"({knobs['admission_policy']}), depth max {report['queue_depth']['max']} "
        f"mean {report['queue_depth']['mean']}, micro-batch mean "
        f"{report['micro_batches']['mean_size']} max {report['micro_batches']['max_size']}, "
        f"{report['resident']} answered at admission from a resident plan"
    )
    if replicated:
        picks = f"picks {report['dispatch']['picks']}, " if "dispatch" in report else ""
        print(
            f"replicas: {getattr(front_end, 'num_replicas', 1)}, {picks}generations served "
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
        stats = report["transport"]
        stats.update(front_end.stats()["transport"])  # incl. the heartbeat knobs it runs with
        print(
            f"transport: process ({knobs['num_replicas']} worker(s), "
            f"heartbeat every {knobs['heartbeat_interval']}s), "
            f"{stats.get('requests_sent', 0)} request(s) shipped, "
            f"{stats.get('parent_answered', 0)} resident step(s) answered in the "
            f"parent from mirrored plans and "
            f"{report['resident'] - stats.get('parent_answered', 0)} at the workers' "
            f"admission, "
            f"{stats.get('heartbeats', 0)} heartbeat(s), "
            f"{stats.get('redispatched', 0)} re-dispatched"
        )
    if workload.generator is not None:
        metrics = _per_generation(_retrieval_metrics, planners) or {}
        if metrics:
            report["retrieval"]["metrics"] = metrics
        print(
            f"retrieval: {knobs['retrieval_spec']} shortlists (k={knobs['candidate_k']}), "
            f"{metrics.get('requests', 0)} request(s), "
            f"{metrics.get('fallbacks', 0)} fallback(s) to exact scoring"
        )
    if tracer is not None:
        counters = tracer.counters()
        report["observability"] = {
            "sample_rate": tracer.sample_rate,
            "traces_retained": len(tracer.trace_ids()),
            "counters": counters,
            "span_summary": tracer.summary(),
        }
        print(
            f"tracing: sample rate {tracer.sample_rate}, "
            f"{report['observability']['traces_retained']} trace(s) retained, "
            f"{counters['spans']} span(s) recorded, {counters['sampled_out']} sampled out"
        )
    _write_report(report, args.output)
    return 0


def _serve_traced(args: argparse.Namespace, knobs: dict, sample_rate: float):
    """Serve a short traced open-loop workload; returns ``(tracer, report)``.

    Shared by ``trace`` and ``metrics``: a fixed-count seeded Poisson trace
    through one :class:`~repro.serve.loop.ServingLoop`, so the trace ids
    (and the dump) are identical across runs on any machine.
    """
    workload = _Workload(args, knobs)
    tracer = Tracer(enabled=True, sample_rate=sample_rate)
    with ServingLoop(workload.planner(), tracer=tracer) as loop:
        report = run_open_loop(
            loop,
            workload.contexts,
            arrival_rate=knobs["arrival_rate"],
            num_requests=workload.config["serve_requests_per_context"] * len(workload.contexts),
            seed=args.seed,
            max_length=workload.max_length,
        )
    return tracer, report


def run_trace(args: argparse.Namespace, knobs: dict) -> int:
    """Dump every span of the traced workload as JSON."""
    from repro.obs.export import traces_to_json

    tracer, report = _serve_traced(args, knobs, knobs["trace_sample_rate"])
    print(
        f"traced {len(tracer.trace_ids())} of {report['admitted_requests']} "
        f"request(s) at sample rate {tracer.sample_rate} "
        f"({tracer.counters()['spans']} span(s) recorded)",
        file=sys.stderr,
    )
    _dump(traces_to_json(tracer), args.output, "traces")
    return 0


def run_metrics(args: argparse.Namespace, knobs: dict) -> int:
    """Dump the process metrics registry after the traced workload, so the
    dump shows a populated registry (serving latency histograms,
    queue/admission counters, cache and KV stats) rather than an empty one."""
    from repro.obs.export import metrics_to_json, metrics_to_prometheus

    _tracer, report = _serve_traced(args, knobs, sample_rate=1.0)
    if args.metrics_format == "json":
        payload = metrics_to_json()
    else:
        payload = metrics_to_prometheus().rstrip("\n")
    print(
        f"registry snapshot after serving {report['admitted_requests']} request(s)",
        file=sys.stderr,
    )
    _dump(payload, args.output, "metrics")
    return 0
