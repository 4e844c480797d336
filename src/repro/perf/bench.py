"""Contract runner: the deterministic bits and work counts ``repro.perf.gate`` reads.

``run_benchmarks`` trains a small IRN on the fixed-seed synthetic corpus and
runs up to thirteen sections (:data:`BENCH_SECTIONS`).  Each section compares
an optimised path against the reference it must reproduce — the scalar
planner (:class:`ScalarOnlyBackbone`), the sequentially driven
``rollout_next_step`` planner, ``scaled_dot_product_attention(fused=False)``
— and records two kinds of value only:

* **contract bits** — parity, zero-drop, no-pause and detection-budget
  booleans, which :mod:`repro.perf.gate` turns into a CI failure;
* **counts that repeat exactly** — forwards and token-work
  (``irn.decode_stats``), cache hits and replans, candidate-set
  sizes, overlap@k, plan regret, K/V bytes copied, wire bytes per envelope,
  spans per served request.

No section is a stopwatch: wall-clock belongs to ``benchmarks/e2e`` (see its
README; the gated numbers are the metrics ``BENCHMARK.json`` names), the one
instrument whose readings repeat on a shared host.  The clock is read in
three places, each commented where it happens: the chaos run's detection
deadline, the sizing of the hot-refit trace, and the stepwise section's
single ``forwards_per_sec``.

Run ``PYTHONPATH=src python -m repro.perf.bench --profile smoke`` (or
``repro-irs bench``) to write the report; ``--sections`` runs a subset and
``--cprofile`` adds a pstats dump.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from functools import cached_property
from typing import Sequence

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

import numpy as np

from repro.cache.stats import DecodeStats
from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.data.preprocessing import build_corpus
from repro.data.splitting import DatasetSplit, split_corpus
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.evaluation.protocol import rollout_next_step, sample_objectives
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ScalarOnlyBackbone",
    "BENCH_SECTIONS",
    "BENCH_PROFILES",
    "smoke_config",
    "default_config",
    "scale_config",
    "bench_config",
    "resolve_profile",
    "build_bench_split",
    "machine_info",
    "peak_rss_kb",
    "resolve_sections",
    "run_benchmarks",
    "profile_benchmarks",
    "format_summary",
    "main",
]

#: Spans a fully sampled request may allocate, averaged over a serially
#: replayed trace: four lifecycle spans (admission, queue wait, drain, cache
#: decision; two — admission and cache decision — for a step answered at
#: admission from a resident plan) plus one ``beam.depth`` span per planned
#: depth on the requests that replan.  Instrumentation that starts recording per beam row or per
#: token blows through it; what a span costs in time is for benchmarks/e2e.
SPAN_BUDGET_PER_REQUEST = 8.0


def peak_rss_kb() -> "int | None":
    """Peak resident set size of this process in KB (``None`` off-POSIX);
    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak //= 1024
    return int(peak)


def machine_info() -> dict:
    """CPU count, platform and peak RSS of the machine behind a report (the
    root block; every section repeats the CPU count and its own peak RSS)."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "peak_rss_kb": peak_rss_kb(),
    }


class ScalarOnlyBackbone:
    """Facade exposing only the scalar scoring API of a backbone.

    Hiding ``score_with_objective_batch`` forces :class:`BeamSearchPlanner`
    onto its per-hypothesis fallback, which reproduces the pre-batching
    planner (one module forward per hypothesis per depth) for baseline
    measurements and parity checks.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = f"{getattr(inner, 'name', type(inner).__name__)}-scalar"

    @property
    def corpus(self):
        return self._inner.corpus

    def score_with_objective(
        self, sequence: Sequence[int], objective: int, user_index: int | None = None
    ) -> np.ndarray:
        return self._inner.score_with_objective(sequence, objective, user_index=user_index)

    @property
    def fit_generation(self):
        return getattr(self._inner, "fit_generation", None)


class _Stopwatch:
    """Seconds since construction — the contract runner's only clock."""

    def __init__(self) -> None:
        self._started = time.perf_counter()

    @property
    def seconds(self) -> float:
        return time.perf_counter() - self._started


def _retrieval_config(vocab_tiers: "list[int]") -> dict:
    """Knobs of the ``two_stage_retrieval`` section, shared across profiles.

    The section builds its own per-tier corpora (streaming store) and its
    own small IRN per tier — exact full-vocabulary planning at ``V = 10**5``
    allocates ``O(rows * window * V)`` logits, so the beam is kept narrow
    and the model window short to bound the exact baseline's memory.
    """
    return dict(
        vocab_tiers=list(vocab_tiers),
        num_candidates=64,
        overlap_k=10,
        num_contexts=4,
        num_users=64,
        min_events=12,
        max_events=24,
        beam_width=2,
        branch_factor=2,
        plan_max_length=4,
        irn=dict(
            embedding_dim=16,
            user_dim=4,
            num_heads=2,
            num_layers=1,
            epochs=1,
            batch_size=8,
            max_sequence_length=16,
            seed=0,
        ),
    )


def _scale_tiers() -> "list[int]":
    """Vocab tiers of the ``scale`` profile (``10**5`` default ceiling).

    ``REPRO_BENCH_SCALE_TIERS`` overrides with a comma-separated item-count
    list — the opt-in for the ``10**6`` tier, whose exact full-vocabulary
    baseline needs several GB of transient logit memory.
    """
    override = os.environ.get("REPRO_BENCH_SCALE_TIERS", "").strip()
    if override:
        try:
            tiers = [int(part) for part in override.split(",") if part.strip()]
        except ValueError:
            raise ConfigurationError(
                f"REPRO_BENCH_SCALE_TIERS must be a comma-separated list of "
                f"item counts, got '{override}'"
            ) from None
        if not tiers or min(tiers) < 100:
            raise ConfigurationError(
                f"REPRO_BENCH_SCALE_TIERS must list item counts >= 100, got '{override}'"
            )
        return tiers
    return [10_000, 100_000]


def smoke_config() -> dict:
    """Seconds-scale profile used by CI and the ``pytest -m perf`` smoke test."""
    return {
        "profile": "smoke",
        "retrieval": _retrieval_config([500, 2000]),
        "synthetic": dict(
            name="perf-smoke",
            num_users=40,
            num_items=60,
            num_genres=6,
            min_sequence_length=14,
            max_sequence_length=28,
            seed=0,
        ),
        "irn": dict(
            embedding_dim=16,
            user_dim=4,
            num_heads=2,
            num_layers=1,
            epochs=1,
            batch_size=32,
            max_sequence_length=20,
            seed=0,
        ),
        "beam_width": 4,
        "branch_factor": 4,
        "max_path_length": 8,
        "num_instances": 8,
        "num_eval_instances": 24,
        "num_stepwise_instances": 4,
        "serve_requests_per_context": 3,
        "num_replicas": 2,
        "replica_arrival_rate": 80.0,
        "replica_refit_at": 0.25,
        "tensor_ops_decode_steps": 8,
        "distributed_worker_counts": [1, 2, 4],
        "distributed_burst_requests": 48,
        "distributed_heartbeat_interval": 0.05,
    }


def default_config() -> dict:
    """The standard profile (minutes): a larger corpus, a 2-layer model and
    longer paths; everything it does not override is the smoke value."""
    config = smoke_config()
    config.update(
        {
            "profile": "default",
            "retrieval": _retrieval_config([1_000, 10_000, 100_000]),
            "synthetic": dict(
                name="perf-synthetic",
                num_users=120,
                num_items=240,
                num_genres=8,
                seed=0,
            ),
            "irn": dict(
                embedding_dim=32,
                user_dim=8,
                num_heads=2,
                num_layers=2,
                epochs=2,
                batch_size=64,
                max_sequence_length=50,
                seed=0,
            ),
            "max_path_length": 12,
            "num_instances": 24,
            "num_eval_instances": 60,
            "num_stepwise_instances": 8,
            "serve_requests_per_context": 4,
            "replica_arrival_rate": 100.0,
            "tensor_ops_decode_steps": 12,
            "distributed_burst_requests": 96,
        }
    )
    return config


def scale_config() -> dict:
    """The ``scale`` profile: smoke-sized shared sections; the retrieval
    section runs at ``10**4`` / ``10**5`` items (``10**6`` when
    ``REPRO_BENCH_SCALE_TIERS`` opts in)."""
    config = smoke_config()
    config["profile"] = "scale"
    config["retrieval"] = _retrieval_config(_scale_tiers())
    return config


#: Profile registry for ``repro-irs bench --profile`` / ``run_benchmarks``.
_PROFILE_BUILDERS = {"smoke": smoke_config, "default": default_config, "scale": scale_config}
BENCH_PROFILES = tuple(_PROFILE_BUILDERS)


def resolve_profile(profile: "str | None") -> str:
    """Validate a bench profile name eagerly (before any expensive setup)."""
    name = str(profile or "default").strip().lower()
    if name not in BENCH_PROFILES:
        raise ConfigurationError(
            f"unknown bench profile '{profile}'; known profiles: "
            f"{', '.join(BENCH_PROFILES)}"
        )
    return name


def bench_config(profile: "str | None") -> dict:
    """Resolve ``profile`` to its config dict (:class:`ConfigurationError` on typos)."""
    return _PROFILE_BUILDERS[resolve_profile(profile)]()


def build_bench_split(config: dict) -> DatasetSplit:
    """Generate the synthetic corpus and split for a benchmark profile."""
    dataset = generate_synthetic_dataset(SyntheticConfig(**config["synthetic"]))
    corpus = build_corpus(dataset, min_interactions=3)
    return split_corpus(corpus, l_min=6, l_max=14, validation_fraction=0.1, seed=0)


def _pick(source: dict, *names: str) -> dict:
    return {name: source[name] for name in names}


def _batch_args(contexts: list) -> "tuple[list, list, list]":
    """``contexts`` as the (histories, objectives, users) the batch APIs take."""
    return ([c[0] for c in contexts], [c[1] for c in contexts], [c[2] for c in contexts])


class _Workload:
    """The corpus, model, contexts and references every shared section uses.

    Built once per ``run_benchmarks`` call.  The four serving sections
    (async, replicated, distributed, observability) all check their
    responses against the same thing — a sequentially driven planner's
    ``rollout_next_step`` over ``contexts`` — so that planner and its paths
    live here (built on first use) instead of being rebuilt per section.
    """

    def __init__(self, config: dict) -> None:
        self.config = config
        self.split = build_bench_split(config)
        self.irn = IRN(**config["irn"]).fit(self.split)
        self.instances = sample_objectives(
            self.split,
            min_objective_interactions=2,
            seed=0,
            max_instances=config["num_instances"],
        )
        self.contexts = [
            (list(inst.history), inst.objective, inst.user_index)
            for inst in self.instances
        ]
        self.batch_args = _batch_args(self.contexts)
        self.max_length = config["max_path_length"]

    def planner(self, backbone=None, **knobs) -> BeamSearchPlanner:
        """A fitted planner at the profile's beam shape."""
        return BeamSearchPlanner(
            self.irn if backbone is None else backbone,
            beam_width=self.config["beam_width"],
            branch_factor=self.config["branch_factor"],
            **knobs,
        ).fit(self.split)

    def serving_planner(self, backbone=None, **knobs) -> BeamSearchPlanner:
        """A planner as the serving sections configure it."""
        return self.planner(backbone, max_length=self.max_length, **knobs)

    @cached_property
    def reference_planner(self) -> BeamSearchPlanner:
        return self.serving_planner()

    @cached_property
    def sequential_paths(self) -> "list[list[int]]":
        """What sequential ``next_step`` serving answers over ``contexts``."""
        return rollout_next_step(self.reference_planner, self.contexts, self.max_length)


def _forwards(irn: IRN, fn) -> "tuple[object, int]":
    """Run ``fn``; return (result, forwards it cost — one per scoring call)."""
    before = irn.decode_stats.snapshot()["forwards"]
    result = fn()
    return result, irn.decode_stats.snapshot()["forwards"] - before


def _scalar_vs_batched(irn: IRN, scalar, batched, equal_key: str) -> dict:
    """Forward counts of a scalar loop vs its one-call batched form, and
    whether they answer the same."""
    scalar_out, scalar_forwards = _forwards(irn, scalar)
    batched_out, batched_forwards = _forwards(irn, batched)
    return {
        "scalar": {"paths": len(scalar_out), "forwards": scalar_forwards},
        "batched": {"paths": len(batched_out), "forwards": batched_forwards},
        "forward_reduction": round(scalar_forwards / max(batched_forwards, 1), 2),
        equal_key: list(scalar_out) == list(batched_out),
    }


def _bench_beam(w: _Workload) -> dict:
    batched_planner = w.planner()
    scalar_planner = w.planner(ScalarOnlyBackbone(w.irn))
    return {
        "beam_width": w.config["beam_width"],
        "branch_factor": w.config["branch_factor"],
        "max_path_length": w.max_length,
        "num_instances": len(w.contexts),
        **_scalar_vs_batched(
            w.irn,
            lambda: [
                scalar_planner.plan_path(history, objective, user_index=user, max_length=w.max_length)
                for history, objective, user in w.contexts
            ],
            lambda: batched_planner.plan_paths_batch(*w.batch_args, max_length=w.max_length),
            "plans_equal",
        ),
    }


def _bench_greedy(w: _Workload) -> dict:
    return {
        "max_path_length": w.max_length,
        "num_instances": len(w.contexts),
        **_scalar_vs_batched(
            w.irn,
            lambda: [
                w.irn.generate_path(history, objective, user_index=user, max_length=w.max_length)
                for history, objective, user in w.contexts
            ],
            lambda: w.irn.generate_paths_batch(*w.batch_args, max_length=w.max_length),
            "plans_equal",
        ),
    }


def _bench_nextitem(w: _Workload) -> dict:
    instances = w.split.test[: w.config["num_eval_instances"]]
    histories = [list(inst.history) for inst in instances]
    targets = [inst.target for inst in instances]
    users = [inst.user_index for inst in instances]
    return {
        "num_instances": len(instances),
        **_scalar_vs_batched(
            w.irn,
            lambda: [
                w.irn.rank_of(history, target, user_index=user)
                for history, target, user in zip(histories, targets, users)
            ],
            lambda: w.irn.rank_of_batch(histories, targets, users),
            "ranks_equal",
        ),
    }


def _token_work(irn: IRN, fn) -> "tuple[object, dict]":
    """Run ``fn``; return (result, the decode-stats it added).

    Token-work (positions encoded per transformer call) is the unit that
    stays meaningful once incremental decoding makes forwards unequal-sized.
    """
    before = irn.decode_stats.snapshot()
    result = fn()
    delta = DecodeStats.delta(before, irn.decode_stats.snapshot())
    return result, _pick(
        delta, "forwards", "tokens_encoded", "tokens_full", "tokens_incremental", "tokens_fallback"
    )


def _token_work_reduction(before: dict, after: dict) -> float:
    return round(before["tokens_encoded"] / max(after["tokens_encoded"], 1), 2)


def _bench_stepwise(w: _Workload) -> dict:
    """``next_step``-driven IRS evaluation: cached serving vs the PR 1 baseline.

    Single ``next_step`` requests are interleaved across all instances in
    lockstep (online serving order).  The baseline planner is configured like
    the pre-cache implementation — one replan slot, no plan memoisation, no
    decoding sessions — so every context switch forces a from-scratch replan;
    the cached planner plans each context once and then serves from memory.
    The semantic reference is *isolated* serving: a dedicated planner per
    context, which the cached planner must reproduce exactly.
    """
    contexts = w.contexts[: w.config["num_stepwise_instances"]]
    max_length = w.max_length

    isolated = [
        rollout_next_step(w.planner(max_length=max_length), [context], max_length)[0]
        for context in contexts
    ]
    cached_planner = w.planner(max_length=max_length)

    def serve(planner):
        return _token_work(w.irn, lambda: rollout_next_step(planner, contexts, max_length))

    baseline_paths, baseline_work = serve(
        w.planner(
            max_length=max_length,
            plan_cache_size=0,
            step_cache_size=1,
            use_decoding_sessions=False,
        )
    )
    # Clock read 1 of 3: `repro-irs bench` prints one forwards/sec figure so
    # a terminal reader sees the order of magnitude; it is a single raw
    # sample, not a measurement — compare runs with benchmarks/e2e.
    watch = _Stopwatch()
    cached_paths, cached_work = serve(cached_planner)
    cached_work["forwards_per_sec"] = round(cached_work["forwards"] / watch.seconds, 2)

    return {
        "max_path_length": max_length,
        "num_instances": len(contexts),
        "baseline": baseline_work,
        "cached": cached_work,
        "cache_counters": cached_planner.cache_info(),
        "token_work_reduction": _token_work_reduction(baseline_work, cached_work),
        "cached_paths_match_isolated": cached_paths == isolated,
        "baseline_paths_match_isolated": baseline_paths == isolated,
    }


def _bench_incremental(w: _Workload) -> dict:
    """Beam planning with decoding sessions on vs off, in two regimes.

    The top-level row is a single-layer IRN, where prefix K/V reuse across
    depths is exact under the PIM (see :mod:`repro.cache.kv`): every depth
    encodes one new token per hypothesis instead of the full right-aligned
    window.  ``default_model`` is the model the paper proposes (2 layers,
    personalized mask), where a session shares each root's history within a
    depth instead.  Plan memoisation is off on every planner.  The model
    window is sized to fit history + path: a context that outgrows it slides
    the batch and every row re-encodes its own window, the regime the other
    sections cover.
    """
    max_length = w.max_length
    window = max(len(context[0]) for context in w.contexts) + max_length + 1

    def row(num_layers: int, sessions_key: str) -> dict:
        irn = IRN(
            **dict(w.config["irn"], num_layers=num_layers, max_sequence_length=window)
        ).fit(w.split)

        def plan(**knobs):
            planner = w.planner(irn, plan_cache_size=0, **knobs)
            return _token_work(
                irn, lambda: planner.plan_paths_batch(*w.batch_args, max_length=max_length)
            )

        off_paths, off_work = plan(use_decoding_sessions=False)
        on_paths, on_work = plan()
        return {
            "num_layers": num_layers,
            "mask_type": irn.mask_type.name.lower(),
            "full_reencode": off_work,
            sessions_key: on_work,
            "token_work_reduction": _token_work_reduction(off_work, on_work),
            "plans_equal": off_paths == on_paths,
        }

    return {
        "max_path_length": max_length,
        "num_instances": len(w.contexts),
        **row(1, "incremental"),
        "default_model": row(2, "shared_history"),
    }


def _bench_sharded(w: _Workload) -> dict:
    """The offline evaluation protocol at 1 / 2 / 4 threads.

    Per thread count, :class:`~repro.evaluation.protocol.IRSEvaluationProtocol`
    rolls the bench instances out through ``generate_records`` (batched
    Algorithm-1 rollouts) and ``generate_records_stepwise`` (lockstep
    ``next_step``), each on a fresh cold-cache planner, and
    :func:`~repro.evaluation.nextitem.evaluate_next_item` ranks the held-out
    items; the 1-thread run is an inline call and IS the serial reference
    every other thread count must reproduce bit-identically.
    """
    from repro.evaluation.evaluator import IRSEvaluator
    from repro.evaluation.nextitem import evaluate_next_item
    from repro.evaluation.protocol import IRSEvaluationProtocol

    evaluator = IRSEvaluator(w.irn)

    def evaluate(num_workers: int) -> "tuple[list, list, object]":
        protocol = IRSEvaluationProtocol(
            w.split,
            evaluator,
            max_length=w.max_length,
            min_objective_interactions=2,
            max_instances=w.config["num_instances"],
            num_workers=num_workers,
        )
        records = protocol.generate_records(w.serving_planner(plan_cache_size=0))
        stepwise = protocol.generate_records_stepwise(w.serving_planner())
        nextitem = evaluate_next_item(
            w.irn,
            w.split,
            max_instances=w.config["num_eval_instances"],
            num_workers=num_workers,
        )
        return records, stepwise, nextitem

    serial = evaluate(1)
    workers_report = []
    for num_workers in (1, 2, 4):
        records, stepwise, nextitem = serial if num_workers == 1 else evaluate(num_workers)
        workers_report.append(
            {
                "num_workers": num_workers,
                "records": len(records),
                "records_equal_serial": records == serial[0],
                "stepwise_records_equal_serial": stepwise == serial[1],
                "nextitem_equal_serial": nextitem == serial[2],
            }
        )
    return {
        "max_path_length": w.max_length,
        "num_instances": len(serial[0]),
        "workers": workers_report,
    }


def _bench_async_serving(w: _Workload) -> dict:
    """The lockstep ``next_step`` trace replayed through the asynchronous loop.

    A fresh cold-cache planner serves the trace through a
    :class:`~repro.serve.loop.ServingLoop`; the responses must be
    bit-identical to sequential serving — async serving changes when work
    happens, never what is answered.  ``served`` and the admission counts
    depend on the trace alone; how a round splits into micro-batches is a
    race and is not recorded.
    """
    from repro.serve import ServingLoop, replay_lockstep

    with ServingLoop(w.serving_planner()) as loop:
        served_paths = replay_lockstep(loop, w.contexts, w.max_length)
        stats = loop.stats()
    return {
        "max_path_length": w.max_length,
        "num_contexts": len(w.contexts),
        "responses_match_sequential": served_paths == w.sequential_paths,
        "served": stats["served"],
        "admission": {**loop.admission.describe(), **stats["admission"]},
    }


def _bench_replicated_serving(w: _Workload) -> dict:
    """Replicated serving at a shared generation, then under a hot refit.

    * **Parity** — the lockstep trace replayed through an N-replica
      :class:`~repro.replica.set.ReplicaSet` over one shared backbone must
      equal sequential serving: session affinity keeps a context's requests
      on one replica, so routing changes *where* work happens, never what
      is answered.
    * **Hot refit** — open-loop Poisson traffic with a refit armed
      mid-trace: a fresh replica set trains off-path (the factory is
      deterministic, so the weights do not change and the experiment
      isolates the *protocol*), the generation flips atomically, the old
      replicas drain dry.  The gate asserts the no-pause bits — zero errored
      requests, zero rejections under ``block``, one generation step.  How
      many requests were offered and which generation served each depends
      on how fast the host trained; those counts vary run to run.
    """
    from repro.replica import ReplicaSet, run_replicated_open_loop
    from repro.serve import replay_lockstep

    num_replicas = w.config["num_replicas"]

    with ReplicaSet(w.serving_planner, num_replicas=num_replicas) as replica_set:
        served_paths = replay_lockstep(replica_set, w.contexts, w.max_length)
        parity_stats = replica_set.stats()

    def fresh_factory():
        backbone = IRN(**w.config["irn"]).fit(w.split)
        return w.serving_planner(backbone)

    # Clock read 2 of 3: the refit retrains every replica off-path, so the
    # traffic window must outlast one fleet build on THIS host or the flip
    # lands after the last arrival and the no-pause bits check nothing.
    watch = _Stopwatch()
    refit_set = ReplicaSet(fresh_factory, num_replicas=num_replicas).start()
    build_seconds = watch.seconds
    refit_at = w.config["replica_refit_at"]
    try:
        run = run_replicated_open_loop(
            refit_set,
            w.contexts,
            arrival_rate=w.config["replica_arrival_rate"],
            duration=max(1.5, refit_at + 3.0 * build_seconds + 0.75),
            seed=0,
            max_length=w.max_length,
            refit_at=refit_at,
        )
    finally:
        refit_set.close()

    # The driver's report is mostly latency; keep the protocol's accounting.
    hot_refit = _pick(
        run,
        "offered_requests",
        "admitted_requests",
        "rejected_requests",
        "errored_requests",
        "no_pause",
        "generations_served",
        "admission",
    )
    hot_refit["refit"] = _pick(
        run["refit"],
        "generation_from",
        "generation_to",
        "flip_seconds",
        "completed_during_trace",
    )
    return {
        "max_path_length": w.max_length,
        "num_contexts": len(w.contexts),
        "num_replicas": num_replicas,
        "parity": {
            "responses_match_single_replica": served_paths == w.sequential_paths,
            "served": parity_stats["served"],
            "dispatch": parity_stats["dispatch"],
        },
        "hot_refit": hot_refit,
    }


def _bench_distributed_serving(w: _Workload) -> dict:
    """Multi-process serving over the binary transport.

    * **Codec** — wire bytes per request / response envelope and per
      heartbeat frame: the fixed size tax of the protocol.
    * **Workers** — at each worker count, the lockstep trace replayed
      through a :class:`~repro.distributed.RemoteReplicaSet` must equal
      sequential serving — with every step after a context's first answered
      in the parent from the plan the first one's response mirrored there
      (``parent_answered`` > 0; ``plans_received`` counts the responses
      that carried one) — and a burst of ``plan_paths`` requests (histories
      rotated, ``history[r:] + history[:r]``, so each envelope is a distinct
      plan) must equal the reference planner's plans.
    * **Chaos** — SIGKILL one of two workers mid-burst: every admitted
      future must still resolve bit-identically (re-dispatch to the
      survivor) and the victim must flip unhealthy within the
      missed-heartbeat budget.  How many requests were re-dispatched depends
      on how far the victim got before the signal.

    On platforms without ``fork`` the section records the codec sizes only
    and stamps ``can_fork: false`` (the gate skips it).
    """
    import signal

    from repro.config import resolve_heartbeat_misses
    from repro.distributed import CAN_FORK, RemoteReplicaSet, wire
    from repro.serve import replay_lockstep
    from repro.serve.request import ServeRequest

    contexts = w.contexts
    max_length = w.max_length
    heartbeat_interval = w.config["distributed_heartbeat_interval"]

    codec_batch = 64
    entries = []
    for i in range(codec_batch):
        history, objective, user = contexts[i % len(contexts)]
        entries.append(
            (i, ServeRequest.create("plan_paths", history, objective, user_index=user))
        )
    request_payload = wire.encode_request_batch(entries)
    response_payload = wire.encode_response_batch(
        [
            wire.ResponseRecord(
                i,
                True,
                answer=list(range(max_length)),
                served_generation=1,
                batch_tag=i,
                queue_wait_s=0.0005,
                service_s=0.002,
            )
            for i in range(codec_batch)
        ]
    )
    heartbeat_payload = wire.encode_heartbeat(0, 1, 1, True, 2, 100, 98, 1, 64, 1.5, 8.25)
    section = {
        "max_path_length": max_length,
        "num_contexts": len(contexts),
        "transport": "process",
        "can_fork": CAN_FORK,
        "heartbeat_interval": heartbeat_interval,
        "codec": {
            "batch_size": codec_batch,
            "request_bytes_per_envelope": len(request_payload) // codec_batch,
            "response_bytes_per_envelope": len(response_payload) // codec_batch,
            "heartbeat_frame_bytes": wire.FRAME_HEADER.size + len(heartbeat_payload),
        },
    }
    if not CAN_FORK:  # pragma: no cover - POSIX CI always forks
        return section

    # Distinct plans per burst envelope: rotate each context's history so
    # the plan-cache key changes request to request.
    burst = int(w.config["distributed_burst_requests"])
    burst_contexts = []
    for j in range(burst):
        history, objective, user = contexts[j % len(contexts)]
        rotation = (j // len(contexts)) % len(history)
        burst_contexts.append((history[rotation:] + history[:rotation], objective, user))
    expected_burst = [
        w.reference_planner.plan_path(history, objective, user_index=user)
        for history, objective, user in burst_contexts
    ]

    def enqueue_burst(serving_set) -> list:
        requests = [
            ServeRequest.create("plan_paths", history, objective, user_index=user)
            for history, objective, user in burst_contexts
        ]
        for request in requests:
            serving_set.enqueue(request)
        return requests

    workers_report = []
    for num_workers in w.config["distributed_worker_counts"]:
        with RemoteReplicaSet(
            w.serving_planner,
            num_replicas=num_workers,
            heartbeat_interval=heartbeat_interval,
        ) as remote_set:
            served_paths = replay_lockstep(remote_set, contexts, max_length)
            replay_transport = remote_set.stats()["transport"]
            burst_answers = [
                request.future.result(timeout=300)
                for request in enqueue_burst(remote_set)
            ]
        workers_report.append(
            {
                "num_workers": num_workers,
                "responses_match_sequential": served_paths == w.sequential_paths,
                **_pick(replay_transport, "parent_answered", "plans_received"),
                "burst_answers_match": burst_answers == expected_burst,
            }
        )

    with RemoteReplicaSet(
        w.serving_planner, num_replicas=2, heartbeat_interval=heartbeat_interval
    ) as chaos_set:
        requests = enqueue_burst(chaos_set)
        victim = chaos_set.active_replicas()[0]
        os.kill(victim.worker.pid, signal.SIGKILL)
        # Clock read 3 of 3: the contract IS a deadline — a killed worker
        # must be marked unhealthy within K missed beats — so the wait for
        # the verdict is timed (and capped, should the detector be broken).
        watch = _Stopwatch()
        while victim.healthy and watch.seconds < 30.0:
            time.sleep(0.001)
        detect_seconds = watch.seconds
        answers = [request.future.result(timeout=300) for request in requests]
        chaos_stats = chaos_set.stats()["transport"]
    # Budget: K missed beats plus one interval of detector granularity.
    budget_seconds = (resolve_heartbeat_misses(None) + 1) * heartbeat_interval
    section["burst_requests"] = burst
    section["workers"] = workers_report
    section["chaos"] = {
        "num_workers": 2,
        "requests": len(requests),
        "zero_dropped": len(answers) == len(requests)
        and all(request.future.done() for request in requests),
        "answers_match": answers == expected_burst,
        **_pick(chaos_stats, "redispatched", "duplicate_responses"),
        "detect_seconds": round(detect_seconds, 4),
        "budget_seconds": round(budget_seconds, 4),
        "unhealthy_within_budget": detect_seconds <= budget_seconds,
    }
    return section


def _bench_tensor_ops(w: _Workload) -> dict:
    """The tensor engine's contracts at the shapes the decode loop offers it.

    Micro-batch rows are ``num_instances * beam_width`` hypotheses, each
    decode step queries 2 positions (new token + re-projected objective)
    against a key window of history + path + objective, split across the
    configured head count.  Four bits the gate enforces: fused↔unfused
    attention parity (the kernel the baselines infer through), the float32
    inference program's documented logit tolerance (the section's contexts
    scored by the model under both dtypes), the in-place-ops grad guard, and
    the arena cache's ``no_prefix_copy`` allocation proof (bytes copied per
    decode step, counted by the cache).
    """
    from repro.cache.kv import LayerKVCache, allocation_stats, reset_allocation_stats
    from repro.nn import functional as F
    from repro.nn.attention import NEG_INF, scaled_dot_product_attention
    from repro.nn.tensor import Tensor, no_grad

    heads = w.config["irn"]["num_heads"]
    d_head = w.config["irn"]["embedding_dim"] // heads
    batch = w.config["num_instances"] * w.config["beam_width"]
    q_len = 2  # new token + re-projected objective per objective-mode step
    k_len = max(len(context[0]) for context in w.contexts) + w.max_length + 1
    steps = w.config["tensor_ops_decode_steps"]

    rng = np.random.default_rng(0)
    q = rng.normal(size=(batch, heads, q_len, d_head))
    k = rng.normal(size=(batch, heads, k_len, d_head))
    v = rng.normal(size=(batch, heads, k_len, d_head))
    mask = np.zeros((1, 1, q_len, k_len))
    mask[..., 0, -1] = NEG_INF  # objective-column masking, as in real decode rows

    with no_grad():
        fused_out, fused_weights = F.fused_attention(q, k, v, mask=mask)
        unfused_out, unfused_weights = scaled_dot_product_attention(
            Tensor(q), Tensor(k), Tensor(v), mask=mask, fused=False
        )
    parity_diff = max(
        float(np.max(np.abs(fused_out - unfused_out.data))),
        float(np.max(np.abs(fused_weights - unfused_weights.data))),
    )

    f64_scores = w.irn.score_with_objective_batch(*w.batch_args)
    configured = w.irn.inference_dtype
    w.irn.inference_dtype = np.dtype(np.float32)
    try:
        f32_scores = w.irn.score_with_objective_batch(*w.batch_args)
    finally:
        w.irn.inference_dtype = configured
    finite = np.isfinite(f64_scores)
    f32_diff = float(np.max(np.abs(f32_scores[finite] - f64_scores[finite])))

    # The in-place ops must refuse to run where they would corrupt a graph.
    try:
        Tensor(q).add_(q)
        inplace_guard_raises = False
    except ConfigurationError:
        inplace_guard_raises = True

    # A simulated objective-mode decode loop over one arena-backed layer
    # cache.  Only the decode steps are counted: the one-off prefix encode
    # costs the same under any policy, the per-step appends are what differ.
    prefix = rng.normal(size=(batch, heads, k_len - steps - 1, d_head))
    step_cols = rng.normal(size=(batch, heads, 2, d_head))
    cache = LayerKVCache(growth="geometric")
    cache.extend(prefix, prefix.copy())
    reset_allocation_stats()
    for _ in range(steps):
        cache.extend(step_cols, step_cols, persist=1)
    stats = allocation_stats()
    reset_allocation_stats()
    arena = {
        "growth": "geometric",
        "steps": steps,
        "prefix_length": int(prefix.shape[2]),
        **_pick(stats, "arena_allocated_bytes", "copied_bytes", "concat_equivalent_bytes"),
        "copied_bytes_per_step": round(stats["copied_bytes"] / max(stats["extend_calls"], 1)),
        "copy_reduction": round(
            stats["concat_equivalent_bytes"] / max(stats["copied_bytes"], 1), 2
        ),
    }

    return {
        "shapes": {
            "batch": batch,
            "heads": heads,
            "query_len": q_len,
            "key_len": k_len,
            "d_head": d_head,
        },
        "attention": {
            "max_abs_diff": parity_diff,
            "fused_parity": bool(parity_diff <= 1e-9),
        },
        "float32": {
            "max_abs_diff": f32_diff,
            "tolerance": 5e-4,
            "within_tolerance": bool(f32_diff <= 5e-4),
        },
        "decode_allocation": {
            "arena": arena,
            # The contract bit: a decode step copies (much) less than the
            # concatenate-per-extend baseline, i.e. never the full prefix.
            "no_prefix_copy": bool(
                arena["copied_bytes"] < arena["concat_equivalent_bytes"]
            ),
        },
        "inplace_guard_raises": inplace_guard_raises,
    }


def _bench_observability(w: _Workload) -> dict:
    """The observability contract: free when off, bounded and harmless when on.

    * **Disabled no-op** — the trace served by an untraced loop with the
      process-wide ``obs.trace`` allocation counters snapshotted around it:
      a zero delta proves the disabled path allocates no traces and no spans
      — a *structural* no-op, not merely a fast one.
    * **Span budget** — the same trace under a full-sampling tracer: one
      trace per request, and at most :data:`SPAN_BUDGET_PER_REQUEST` spans
      per served request.  Requests are replayed one at a time so that every
      drain holds one request and the count depends on the trace alone
      (batch-wide spans fan out to every request sharing a drain, and how a
      lockstep round splits into drains is a race).
    * **Deterministic trace IDs** — two identically driven traced replays
      must retain the same trace IDs (they derive from routing keys and
      per-key ordinals, never wall time or object identity).
    * **Parity with tracing on** — the lockstep replay bits of the async
      and replicated sections, re-checked with tracing enabled:
      instrumentation must never change what is answered.
    """
    from repro.obs import Tracer, get_registry
    from repro.replica import ReplicaSet
    from repro.serve import ServingLoop, replay_lockstep

    def traced() -> "Tracer":
        return Tracer(enabled=True, sample_rate=1.0)

    def allocations() -> dict:
        return get_registry().snapshot("obs.trace")["counters"]

    def replay_serially(tracer: "Tracer | None") -> "tuple[int, dict]":
        """(requests served, ``obs.trace`` counters the replay added)."""
        before = allocations()
        with ServingLoop(w.serving_planner(), tracer=tracer) as loop:
            for context in w.contexts:
                replay_lockstep(loop, [context], w.max_length)
            served = loop.stats()["served"]
        after = allocations()
        return served, {
            name.rsplit(".", 1)[-1]: after[name] - before.get(name, 0) for name in after
        }

    _, disabled_delta = replay_serially(None)

    tracer = traced()
    served, enabled_delta = replay_serially(tracer)
    trace_ids = sorted(tracer.trace_ids())
    repeat_tracer = traced()
    replay_serially(repeat_tracer)
    spans_per_request = enabled_delta["spans"] / max(served, 1)

    with ServingLoop(w.serving_planner(), tracer=traced()) as loop:
        async_paths = replay_lockstep(loop, w.contexts, w.max_length)
    with ReplicaSet(
        w.serving_planner, num_replicas=w.config["num_replicas"], tracer=traced()
    ) as replica_set:
        replicated_paths = replay_lockstep(replica_set, w.contexts, w.max_length)

    return {
        "max_path_length": w.max_length,
        "num_contexts": len(w.contexts),
        "disabled": {"allocation_delta": disabled_delta},
        "enabled": {
            "sample_rate": 1.0,
            "served": served,
            "allocation_delta": enabled_delta,
            "traces_retained": len(trace_ids),
            "span_counts": {
                name: row["count"] for name, row in tracer.summary().items()
            },
        },
        "overhead": {
            "spans_per_request": round(spans_per_request, 3),
            "traces_per_request": round(enabled_delta["traces"] / max(served, 1), 3),
            "budget_spans": SPAN_BUDGET_PER_REQUEST,
            "within_budget": bool(
                enabled_delta["traces"] == served
                and spans_per_request <= SPAN_BUDGET_PER_REQUEST
            ),
        },
        "disabled_noop": all(delta == 0 for delta in disabled_delta.values()),
        "deterministic_trace_ids": trace_ids == sorted(repeat_tracer.trace_ids()),
        "async_parity_with_tracing": async_paths == w.sequential_paths,
        "replicated_parity_with_tracing": replicated_paths == w.sequential_paths,
    }


class _FullScoringOnly:
    """An IRN with its gathered projection hidden (no ``supports_candidate_scoring``).

    The planner scores such a backbone over the full vocabulary and gathers
    each row's shortlist columns — the reference the shortlist-space
    projection must plan identically to (``gathered_matches_full``).
    """

    def __init__(self, irn: IRN) -> None:
        self._irn = irn
        self.corpus = irn.corpus
        self.name = irn.name

    def score_with_objective(self, sequence, objective, user_index=None):
        return self._irn.score_with_objective(sequence, objective, user_index)

    def score_with_objective_batch(self, sequences, objectives, user_indices=None):
        return self._irn.score_with_objective_batch(sequences, objectives, user_indices)


def _bench_two_stage_retrieval(config: dict) -> dict:
    """Exact vs candidate-pruned planning across vocab-size tiers.

    Per tier: a streaming-store corpus and a small single-layer IRN are
    built from scratch (the tier IS the vocabulary size), then one exact
    planner and one pruned planner per generator backend plan the same
    contexts with plan memoisation off.  Per generator: candidate-set sizes,
    fallback counts, overlap@k of the candidate sets against the exact score
    rows, and mean plan regret (exact-plan score minus pruned-plan score
    under exact replay; ``None`` when no finite comparison exists), and
    ``gathered_matches_full`` — the plans made through the IRN's per-row
    gathered projection equal those of the same model scored in full and
    gathered by the planner (:class:`_FullScoringOnly`).  Bits:
    ``full_vocab_parity`` — at the smallest tier, planning through the
    pruning machinery with :class:`~repro.retrieval.FullVocabGenerator` is
    bit-identical to the exact planner — and ``objective_in_candidates`` for
    every context and backend.  What pruning buys in time is the e2e probe
    pair ``core.plan_path_pruned_ms`` / ``core.plan_path_exact_ms``.
    """
    import tempfile

    from repro.data.streaming import StreamingSyntheticConfig, build_streaming_store
    from repro.retrieval import (
        FullVocabGenerator,
        make_generator,
        overlap_at_k,
        plan_regret,
    )

    r = config["retrieval"]
    plan_length = r["plan_max_length"]
    overlap_k = r["overlap_k"]

    full_vocab_parity = True
    objective_in_candidates = True
    tiers_report: "list[dict]" = []
    for tier_index, num_items in enumerate(r["vocab_tiers"]):
        with tempfile.TemporaryDirectory(prefix="repro-bench-retrieval-") as tmp:
            store = build_streaming_store(
                StreamingSyntheticConfig(
                    num_items=num_items,
                    seed=0,
                    **_pick(r, "num_users", "min_events", "max_events"),
                ),
                os.path.join(tmp, "store"),
                name=f"retrieval-{num_items}",
            )
            corpus = store.as_corpus()
            split = split_corpus(
                corpus, l_min=6, l_max=12, validation_fraction=0.0, seed=0
            )
            irn = IRN(**r["irn"]).fit(split)
            instances = sample_objectives(
                split,
                min_objective_interactions=1,
                seed=0,
                max_instances=r["num_contexts"],
            )
            contexts = [
                ([int(item) for item in inst.history], inst.objective, inst.user_index)
                for inst in instances
            ]
            args = _batch_args(contexts)

            def plan(
                generator=None, backbone=irn
            ) -> "tuple[BeamSearchPlanner, list[list[int]]]":
                planner = BeamSearchPlanner(
                    backbone,
                    candidate_generator=generator,
                    plan_cache_size=0,
                    beam_width=r["beam_width"],
                    branch_factor=r["branch_factor"],
                ).fit(split)
                return planner, planner.plan_paths_batch(*args, max_length=plan_length)

            _, exact_paths = plan()
            exact_scores = irn.score_with_objective_batch(*args)

            generators_report: dict = {}
            for spec in ("cooccurrence", "ann"):
                generator = make_generator(spec, num_candidates=r["num_candidates"])
                generator.fit(split.corpus)
                candidate_sets = [
                    generator.candidates(history, objective, user)
                    for history, objective, user in contexts
                ]
                objective_in_candidates = objective_in_candidates and all(
                    cands is None or objective in cands
                    for cands, (_, objective, _) in zip(candidate_sets, contexts)
                )
                overlaps = [
                    overlap_at_k(exact_scores[row], cands, overlap_k)
                    for row, cands in enumerate(candidate_sets)
                ]
                sizes = [int(c.size) for c in candidate_sets if c is not None]
                pruned_planner, pruned_paths = plan(generator)
                _, full_scored_paths = plan(generator, _FullScoringOnly(irn))
                regrets = [
                    plan_regret(irn, history, objective, exact, pruned, user)
                    for (history, objective, user), exact, pruned in zip(
                        contexts, exact_paths, pruned_paths
                    )
                ]
                finite_regrets = [value for value in regrets if np.isfinite(value)]
                retrieval_counters = pruned_planner.cache_info()["retrieval"]
                generators_report[spec] = {
                    "overlap_at_k": round(float(np.mean(overlaps)), 4),
                    "mean_plan_regret": (
                        round(float(np.mean(finite_regrets)), 4)
                        if finite_regrets
                        else None
                    ),
                    "mean_candidate_size": (
                        round(float(np.mean(sizes)), 1) if sizes else None
                    ),
                    "fallbacks": retrieval_counters["fallbacks"],
                    "requests": retrieval_counters["requests"],
                    "gathered_matches_full": pruned_paths == full_scored_paths,
                }

            if tier_index == 0:
                _, parity_paths = plan(FullVocabGenerator())
                full_vocab_parity = full_vocab_parity and parity_paths == exact_paths

            tiers_report.append(
                {
                    "num_items": num_items,
                    "vocab_size": split.corpus.vocab.size,
                    "num_events": store.num_events,
                    "num_contexts": len(contexts),
                    "generators": generators_report,
                    "peak_rss_kb": peak_rss_kb(),
                }
            )

    return {
        "profile": config["profile"],
        **_pick(r, "num_candidates", "overlap_k", "beam_width", "branch_factor"),
        "plan_max_length": plan_length,
        "full_vocab_parity": bool(full_vocab_parity),
        "objective_in_candidates": bool(objective_in_candidates),
        "tiers": tiers_report,
    }


def _bench_multi_tenant(w: _Workload) -> dict:
    """Multi-tenant serving: per-kind parity, isolation, A/B determinism.

    Three deterministic gate contracts over one in-process tenanted fleet
    (a :class:`~repro.serve.loop.ServingLoop` holding a planner tenant, a
    recommender tenant and a knowledge-graph tenant):

    * **Per-kind parity** — every typed request kind (``next_step`` /
      ``plan_paths`` / ``rank`` / ``kg_path``) served through the tenant
      registry must answer bit-identically to calling the tenant's model
      directly.
    * **Tenant isolation** — a tenant bounded at ``max_inflight`` under
      the reject policy overflows while the drains are held; every reject
      must land on the noisy tenant's own admission scope, and an unbounded
      neighbour enqueued through the same loop must serve its full cohort.
    * **A/B determinism** — two identically-seeded runs of the online A/B
      harness (:func:`repro.tenant.ab.run_ab`) must produce identical
      experiment summaries, latency fields excluded.
    """
    from repro.evaluation.evaluator import IRSEvaluator
    from repro.kg.graph import ItemKnowledgeGraph
    from repro.models.markov import MarkovChainRecommender
    from repro.serve import ServingLoop
    from repro.serve.api import (
        KGPathRequest,
        NextStepRequest,
        PlanRequest,
        RankRequest,
    )
    from repro.tenant import TenantRegistry
    from repro.tenant.ab import TenantArm, run_ab
    from repro.utils.exceptions import QueueFullError

    max_length = w.max_length
    planner = w.planner(max_length=max_length)
    markov = MarkovChainRecommender().fit(w.split)
    graph = ItemKnowledgeGraph().build(w.split.corpus)

    # ---- per-kind parity through the tenanted loop ---- #
    contexts = w.contexts[:8]

    def direct(kind: str, history, objective, user, length=None):
        return planner.plan_for_requests(
            [(kind, tuple(history), objective, (), user, length)]
        )[0]

    # (typed request, what the tenant's model answers when called directly)
    kind_traffic = {
        "next_step": [
            (
                NextStepRequest(history=h, objective=o, user_index=u, tenant="irs"),
                direct("next_step", h, o, u),
            )
            for h, o, u in contexts
        ],
        "plan_paths": [
            (
                PlanRequest(
                    history=h, objective=o, user_index=u, max_length=max_length, tenant="irs"
                ),
                direct("plan_paths", h, o, u, max_length),
            )
            for h, o, u in contexts
        ],
        "rank": [
            (
                RankRequest(history=h, k=10, user_index=u, tenant="zoo"),
                markov.top_k(list(h), 10, user_index=u),
            )
            for h, _, u in contexts
        ],
        "kg_path": [
            (
                KGPathRequest(source=h[-1], target=o, tenant="kg"),
                graph.shortest_item_path(h[-1], o),
            )
            for h, o, _ in contexts
        ],
    }
    registry = TenantRegistry()
    registry.add("irs", planner)
    registry.add("zoo", markov)
    registry.add("kg", graph)
    per_kind: "dict[str, dict]" = {}
    with ServingLoop(None, tenants=registry) as loop:
        for kind, pairs in kind_traffic.items():
            answers = [loop.serve(request).result().answer for request, _ in pairs]
            per_kind[kind] = {
                "requests": len(pairs),
                "parity": answers == [expected for _, expected in pairs],
            }

    # ---- isolation: a noisy tenant's rejects never touch its neighbour -- #
    bound = 2
    noisy_attempts = 6
    isolation_registry = TenantRegistry()
    # A planner that holds no plan yet: the noisy tenant's steps must QUEUE
    # (a step a resident plan answers is served at admission and hands its
    # slot straight back, so it could never overflow the bound).
    isolation_registry.add(
        "noisy", w.planner(max_length=max_length), max_inflight=bound, admission_policy="reject"
    )
    isolation_registry.add("neighbour", markov)
    loop = ServingLoop(None, tenants=isolation_registry)
    history, objective, user = contexts[0]
    noisy_rejects = 0
    futures = []
    # The loop is built but NOT started: admitted envelopes sit in the
    # queue holding their tenant's in-flight slots, so the bounded
    # tenant overflows deterministically at its max_inflight.
    noisy = NextStepRequest(
        history=history, objective=objective, user_index=user, tenant="noisy"
    )
    neighbour = RankRequest(history=history, k=5, user_index=user, tenant="neighbour")
    for _ in range(noisy_attempts):
        try:
            futures.append(loop.enqueue(noisy.to_envelope()))
        except QueueFullError:
            noisy_rejects += 1
    for _ in range(noisy_attempts):
        futures.append(loop.enqueue(neighbour.to_envelope()))
    with loop:  # start the drains; every admitted future must resolve
        for future in futures:
            future.result()
    tenant_stats = loop.stats()["tenants"]
    isolation = {
        "max_inflight": bound,
        "noisy_attempts": noisy_attempts,
        "noisy_rejects": noisy_rejects,
        "noisy_served": tenant_stats["noisy"]["served"],
        "neighbour_served": tenant_stats["neighbour"]["served"],
        "isolated": (
            noisy_rejects == noisy_attempts - bound
            and tenant_stats["noisy"]["served"] == bound
            and tenant_stats["noisy"]["admission"]["rejected"] == noisy_rejects
            and tenant_stats["neighbour"]["served"] == noisy_attempts
        ),
    }

    # ---- A/B determinism: identical seeds => identical summaries ---- #
    evaluator = IRSEvaluator(w.irn)
    ab_instances = w.instances[:6]

    def ab_summary() -> dict:
        # A fresh treatment planner per run: plan-cache affinity carried
        # over from a previous run's sessions would change which steps get
        # replanned — the determinism contract is per *fleet lifetime*,
        # exactly what one CLI invocation or one registry build sees.
        arms = TenantRegistry()
        arms.add("control", markov)
        arms.add("treatment", w.planner(max_length=max_length))
        with ServingLoop(None, tenants=arms) as ab_loop:
            summary = run_ab(
                ab_loop,
                TenantArm("control"),
                TenantArm("treatment"),
                ab_instances,
                evaluator,
                max_steps=2 * max_length,
                seed=0,
            ).summary()
        for arm in ("control", "treatment"):  # wall-clock is not part of the contract
            for field in ("p50_ms", "p95_ms", "slo_met"):
                summary[arm].pop(field, None)
        return summary

    summaries = [ab_summary(), ab_summary()]

    return {
        "max_path_length": max_length,
        "num_contexts": len(contexts),
        "tenants": ["irs", "zoo", "kg"],
        "per_kind": per_kind,
        "isolation": isolation,
        "ab": {
            "sessions_per_cohort": len(ab_instances),
            "runs": 2,
            "deterministic": summaries[0] == summaries[1],
            "uplift": summaries[0]["uplift"],
        },
    }


#: Section registry, in report order: name -> builder over the shared
#: :class:`_Workload` (``two_stage_retrieval`` takes the config instead).
_SECTION_BUILDERS = {
    "tensor_ops": _bench_tensor_ops,
    "beam_planning": _bench_beam,
    "greedy_planning": _bench_greedy,
    "nextitem_evaluation": _bench_nextitem,
    "irs_stepwise_replanning": _bench_stepwise,
    "incremental_decoding": _bench_incremental,
    "sharded_evaluation": _bench_sharded,
    "async_serving": _bench_async_serving,
    "replicated_serving": _bench_replicated_serving,
    "distributed_serving": _bench_distributed_serving,
    "observability": _bench_observability,
    "two_stage_retrieval": _bench_two_stage_retrieval,
    "multi_tenant": _bench_multi_tenant,
}
BENCH_SECTIONS = tuple(_SECTION_BUILDERS)


def resolve_sections(sections: "Sequence[str] | None") -> "tuple[str, ...]":
    """Validate a section subset (``None`` means every section), preserving
    the canonical report order."""
    if sections is None:
        return BENCH_SECTIONS
    requested = [str(name).strip() for name in sections if str(name).strip()]
    if not requested:
        raise ConfigurationError(
            f"sections must name at least one of: {', '.join(BENCH_SECTIONS)}"
        )
    unknown = sorted(set(requested) - set(BENCH_SECTIONS))
    if unknown:
        raise ConfigurationError(
            f"unknown bench section(s) {', '.join(unknown)}; "
            f"valid sections: {', '.join(BENCH_SECTIONS)}"
        )
    return tuple(name for name in BENCH_SECTIONS if name in set(requested))


def run_benchmarks(
    profile: str = "default",
    output: str | None = None,
    sections: "Sequence[str] | None" = None,
) -> dict:
    """Train a small IRN on the synthetic corpus and run the contract sections.

    Returns the report dict; when ``output`` is given it is also written
    there as JSON.  ``sections`` restricts the run to a subset of
    :data:`BENCH_SECTIONS` (unselected sections are simply absent from the
    report).
    """
    selected = resolve_sections(sections)
    config = bench_config(profile)
    # The retrieval section builds its own per-tier corpora/models; when it
    # is the only selection, train no model nothing will use.
    workload = None
    if any(name != "two_stage_retrieval" for name in selected):
        workload = _Workload(config)

    machine = machine_info()
    report = {
        "benchmark": "path_planning",
        "profile": config["profile"],
        "dataset": config["synthetic"]["name"],
        "vocab_size": workload.split.corpus.vocab.size if workload else None,
        "num_users": workload.split.corpus.num_users if workload else None,
        "machine": machine,
        "sections": list(selected),
    }
    for name in selected:
        builder = _SECTION_BUILDERS[name]
        section = builder(config if name == "two_stage_retrieval" else workload)
        # Peak RSS is monotone per process: the reading is an upper bound
        # reached BY the end of this section, so a jump is attributable.
        section["peak_rss_kb"] = peak_rss_kb()
        section["cpu_count"] = machine["cpu_count"]
        report[name] = section
    # Refresh the root machine block's peak after the sections ran.
    machine["peak_rss_kb"] = peak_rss_kb()
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return report


def main(argv: Sequence[str] | None = None) -> None:
    """``python -m repro.perf.bench`` IS ``repro-irs bench``: one flag parser
    (``--profile`` / ``--output`` / ``--sections`` / ``--cprofile``), one
    eager validation path."""
    from repro.cli import main as cli_main

    sys.exit(cli_main(["bench", *(sys.argv[1:] if argv is None else argv)]))


def profile_benchmarks(run, output: str) -> tuple[dict, str]:
    """Run ``run()`` under :mod:`cProfile`, dumping pstats next to ``output``.

    Returns ``(report, stats_path)``.  The dump loads with
    ``pstats.Stats(stats_path)`` for sorting/printing; the profile shows
    where the contract sections spend their calls — to *measure* a change,
    use ``benchmarks/e2e``.
    """
    import cProfile

    stats_path = f"{output}.pstats"
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        report = run()
    finally:
        profiler.disable()
        profiler.dump_stats(stats_path)
    return report, stats_path


def format_summary(report: dict) -> str:
    """Forward and token-work counts, then the gate's verdict on the bits.

    Shared with the ``repro-irs bench`` CLI; subset runs (``--sections``)
    summarise what they ran.  Which bits exist and what they mean is
    :func:`repro.perf.gate.collect_violations`'s knowledge, not repeated
    here; everything else a section recorded is in the JSON report.
    """
    from repro.perf.gate import collect_violations

    lines = []
    for name, label in (
        ("beam_planning", "beam planning"),
        ("greedy_planning", "greedy planning"),
        ("nextitem_evaluation", "next-item evaluation"),
    ):
        if name in report:
            section = report[name]
            lines.append(
                f"{label}: {section['scalar']['forwards']} -> "
                f"{section['batched']['forwards']} forwards "
                f"({section['forward_reduction']}x fewer)"
            )
    if "irs_stepwise_replanning" in report:
        stepwise = report["irs_stepwise_replanning"]
        counters = stepwise["cache_counters"]
        lines.append(
            f"stepwise IRS replanning: {stepwise['baseline']['tokens_encoded']} -> "
            f"{stepwise['cached']['tokens_encoded']} tokens of work "
            f"({stepwise['token_work_reduction']}x less), "
            f"{stepwise['cached']['forwards_per_sec']} forwards/sec"
        )
        lines.append(
            f"plan cache hit rate: {counters['plan_cache']['hit_rate']}, "
            f"step cache hit rate: {counters['step_cache']['hit_rate']} "
            f"(served {counters['serving']['served_from_plan']}, "
            f"replanned {counters['serving']['replans']})"
        )
    if "incremental_decoding" in report:
        incremental = report["incremental_decoding"]
        lines.append(
            f"incremental decoding (1 layer): {incremental['full_reencode']['tokens_encoded']} -> "
            f"{incremental['incremental']['tokens_encoded']} tokens of work "
            f"({incremental['token_work_reduction']}x less)"
        )
        default_model = incremental["default_model"]
        lines.append(
            f"shared-history decoding (2 layers): "
            f"{default_model['full_reencode']['tokens_encoded']} -> "
            f"{default_model['shared_history']['tokens_encoded']} tokens of work "
            f"({default_model['token_work_reduction']}x less)"
        )
    violations = collect_violations(report)
    checked = [name for name in BENCH_SECTIONS if name in report]
    lines.append(
        f"contract bits: {len(violations)} violation(s) across {', '.join(checked)}"
    )
    lines.extend(f"  VIOLATED {violation}" for violation in violations)
    return "\n".join(lines)


if __name__ == "__main__":
    main()
