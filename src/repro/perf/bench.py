"""Benchmark harness for the batched inference engine and the cache subsystem.

Measures, on the synthetic corpus, how the batched planning/evaluation paths
compare against the scalar (pre-batching) ones:

* **beam planning** — ``BeamSearchPlanner.plan_paths_batch`` (one fused
  transformer forward per depth across all hypotheses and instances) versus
  the same planner driven through a :class:`ScalarOnlyBackbone` facade, which
  hides ``score_with_objective_batch`` and therefore reproduces the scalar
  one-forward-per-hypothesis behaviour.
* **greedy rollouts** — ``IRN.generate_paths_batch`` lockstep Algorithm 1
  versus the per-instance ``generate_path`` loop.
* **next-item evaluation** — ``rank_of_batch`` versus per-instance
  ``rank_of``.

and how the :mod:`repro.cache` subsystem compares against the PR 1 baseline:

* **stepwise IRS replanning** — the ``next_step``-driven lockstep serving
  workload (:func:`repro.evaluation.protocol.rollout_next_step`) with the
  plan/serving caches enabled versus a planner configured exactly like the
  pre-cache baseline (single replan slot, no memoisation, no sessions).
  Work is measured in **token-work** (``irn.decode_stats``: positions
  encoded per transformer call), the unit that stays meaningful once
  incremental decoding makes forwards unequal-sized.
* **incremental decoding** — lockstep beam planning with decoding sessions
  on versus off, on a single-layer IRN where prefix K/V reuse is exact (see
  :mod:`repro.cache.kv` for the exactness contract).

and how the :mod:`repro.shard` sharded execution subsystem scales:

* **sharded evaluation** — worker-partitioned batched beam planning at
  1 / 2 / 4 workers versus the serial planner, reporting paths/sec, speedup
  and scaling efficiency, with a bit-identical-plans check per worker count
  and a fork-process parity probe.  The section records the machine's CPU
  count — scaling numbers are only meaningful relative to the cores the run
  actually had.

and how the :mod:`repro.serve` asynchronous serving subsystem behaves:

* **async serving** — the ``next_step`` workload offered through the
  :class:`~repro.serve.loop.ServingLoop` at 1 / 2 / 4 worker-shard queues:
  a deterministic lockstep replay checked bit-identical against sequential
  serving, plus a seeded open-loop Poisson run recording throughput,
  p50/p95/p99 latency, queue-depth and micro-batch stats (wall-clock
  latency numbers are machine-bound like every throughput figure here; the
  parity bits are deterministic).

and how the :mod:`repro.replica` replicated serving subsystem behaves:

* **replicated serving** — N backbone replicas behind the dispatcher
  (:class:`~repro.replica.set.ReplicaSet`): a lockstep replay at a shared
  generation checked bit-identical against single-replica serving, plus an
  open-loop run with a **hot refit** armed mid-trace — fresh replicas train
  off-path, the generation flips atomically, old replicas drain dry — with
  the no-pause contract asserted (zero errored requests, zero rejections
  under the ``block`` policy) and latency percentiles split per generation
  around the flip.

and how the :mod:`repro.retrieval` two-stage retrieval subsystem scales:

* **two-stage retrieval** — per vocab-size tier (the ``scale`` profile
  sweeps ``10**4``/``10**5`` items by default, ``10**6`` opt-in via
  ``REPRO_BENCH_SCALE_TIERS``), exact full-vocabulary beam planning versus
  candidate-pruned planning under each generator backend, reporting
  paths/sec, p95 ``next_step`` latency, candidate-set sizes, overlap@k and
  plan regret, plus two deterministic contract bits the perf gate
  enforces: ``full_vocab_parity`` (full-coverage candidate sets plan
  bit-identically to the exact planner) and ``objective_in_candidates``.
  Corpora are built through the streaming synthetic generator into a
  memory-mapped :class:`~repro.data.store.InteractionStore`, so no tier
  materialises a dense event log.

and how the tensor engine itself performs at the bottom of every stack:

* **tensor ops** — per-op ns/call microbenchmarks at the micro-batch shapes
  the serving loop actually produces (``micro_batches.mean_size`` contexts x
  beam rows, 1-2 query positions, a few dozen key columns): score
  contraction by batched matmul vs einsum, in-place vs graph softmax and
  residual adds, the fused attention kernel vs the graph path (with the
  fused↔unfused parity bit the gate enforces), the float32 inference mode's
  logit deviation, and a simulated decode loop over the arena-backed K/V
  cache whose allocation counters prove appends no longer copy the full
  prefix (``no_prefix_copy``).

``run_benchmarks(sections=[...])`` runs any subset of the sections (the
full bench is minutes-scale; CI's smoke profile and targeted reruns use
``repro-irs bench --sections <name,...>``).

Module forwards are counted with :class:`ForwardCounter` (a wrapper around
``module.forward``) and token-work with :class:`~repro.cache.stats.
DecodeStats`, NOT wall-clock, so the CI assertions stay deterministic;
wall-clock throughput (paths/sec, forwards/sec) is reported alongside for the
perf trajectory.

Run ``PYTHONPATH=src python -m repro.perf.bench`` from the repo root (or
``repro-irs bench``) to write ``BENCH_path_planning.json``; ``--profile
smoke`` keeps it to seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from typing import Sequence

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

import numpy as np

from repro.cache.stats import DecodeStats
from repro.config import resolve_vocab_shards
from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.data.preprocessing import build_corpus
from repro.data.splitting import DatasetSplit, split_corpus
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.evaluation.protocol import EvaluationInstance, rollout_next_step, sample_objectives
from repro.nn.layers import Module
from repro.shard.config import fork_available, resolve_shard_backend
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ForwardCounter",
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


def peak_rss_kb() -> "int | None":
    """Peak resident set size of this process in KB (``None`` off-POSIX).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalised to
    KB so the bench artefact is comparable across the CI matrix.
    """
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak //= 1024
    return int(peak)


def machine_info() -> dict:
    """CPU count and platform of the machine behind the recorded numbers.

    Recorded at the report root AND inside every section (satellite of the
    sharding PR): scaling efficiency at N workers is only comparable across
    bench runs when the reader can see how many cores each run actually had.
    """
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "peak_rss_kb": peak_rss_kb(),
    }


class ForwardCounter:
    """Count calls to a module's ``forward`` (deterministic, no wall-clock).

    Used as a context manager: wraps ``module.forward`` with a counting shim
    for the duration of the block and restores it afterwards.
    """

    def __init__(self, module: Module) -> None:
        self.module = module
        self.count = 0

    def __enter__(self) -> "ForwardCounter":
        original = self.module.forward

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        object.__setattr__(self.module, "forward", counted)
        return self

    def __exit__(self, *exc_info) -> None:
        object.__delattr__(self.module, "forward")


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


def _retrieval_config(vocab_tiers: "list[int]", num_contexts: int) -> dict:
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
        num_contexts=num_contexts,
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
    """Seconds-scale profile used by the ``pytest -m perf`` smoke test."""
    return {
        "profile": "smoke",
        "retrieval": _retrieval_config([500, 2000], num_contexts=4),
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
        "serve_arrival_rate": 300.0,
        "serve_requests_per_context": 3,
        "num_replicas": 2,
        "replica_arrival_rate": 80.0,
        "replica_refit_at": 0.25,
        "tensor_ops_repeats": 30,
        "tensor_ops_decode_steps": 8,
        "wall_repeats": 2,
        "distributed_worker_counts": [1, 2, 4],
        "distributed_burst_requests": 48,
        "distributed_codec_repeats": 60,
        "distributed_heartbeat_interval": 0.05,
    }


def default_config() -> dict:
    """The standard profile behind ``BENCH_path_planning.json``."""
    return {
        "profile": "default",
        "retrieval": _retrieval_config([1_000, 10_000, 100_000], num_contexts=4),
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
        "beam_width": 4,
        "branch_factor": 4,
        "max_path_length": 12,
        "num_instances": 24,
        "num_eval_instances": 60,
        "num_stepwise_instances": 8,
        "serve_arrival_rate": 300.0,
        "serve_requests_per_context": 4,
        "num_replicas": 2,
        "replica_arrival_rate": 100.0,
        "replica_refit_at": 0.25,
        "tensor_ops_repeats": 200,
        "tensor_ops_decode_steps": 12,
        "wall_repeats": 3,
        "distributed_worker_counts": [1, 2, 4],
        "distributed_burst_requests": 96,
        "distributed_codec_repeats": 300,
        "distributed_heartbeat_interval": 0.05,
    }


def scale_config() -> dict:
    """The ``scale`` profile: smoke-sized shared sections, scale-tier retrieval.

    Everything except ``two_stage_retrieval`` runs at smoke size (the other
    sections' scaling story lives in the default profile); the retrieval
    section sweeps ``10**4`` / ``10**5`` items by default and ``10**6`` when
    ``REPRO_BENCH_SCALE_TIERS`` opts in.
    """
    config = smoke_config()
    config["profile"] = "scale"
    config["retrieval"] = _retrieval_config(_scale_tiers(), num_contexts=4)
    return config


#: Profile registry for ``repro-irs bench --profile`` / ``run_benchmarks``.
BENCH_PROFILES = ("smoke", "default", "scale")


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
    builders = {
        "smoke": smoke_config,
        "default": default_config,
        "scale": scale_config,
    }
    return builders[resolve_profile(profile)]()


def build_bench_split(config: dict) -> DatasetSplit:
    """Generate the synthetic corpus and split for a benchmark profile."""
    dataset = generate_synthetic_dataset(SyntheticConfig(**config["synthetic"]))
    corpus = build_corpus(dataset, min_interactions=3)
    return split_corpus(corpus, l_min=6, l_max=14, validation_fraction=0.1, seed=0)


def _timed(fn) -> tuple[object, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _timed_best(fn, repeats: int) -> tuple[object, float]:
    """Run ``fn`` ``repeats`` times; return (first result, min seconds).

    The minimum is the standard noise filter for wall-clock measurement on a
    machine shared with other work (what :mod:`timeit` reports): every run
    does the full workload, so the fastest one is the least-perturbed
    estimate.  The first run's result is returned so callers can check the
    deterministic bits (plans, counters) exactly once.
    """
    result, best = _timed(fn)
    for _ in range(repeats - 1):
        _, seconds = _timed(fn)
        best = min(best, seconds)
    return result, best


def _throughput(paths: int, forwards: int, seconds: float) -> dict:
    return {
        "paths": paths,
        "forwards": forwards,
        "seconds": round(seconds, 4),
        "paths_per_sec": round(paths / seconds, 2) if seconds > 0 else float("inf"),
        "forwards_per_sec": round(forwards / seconds, 2) if seconds > 0 else float("inf"),
    }


def _bench_beam(irn: IRN, split: DatasetSplit, instances: list[EvaluationInstance], config: dict) -> dict:
    contexts = [
        (list(inst.history), inst.objective, inst.user_index) for inst in instances
    ]
    max_length = config["max_path_length"]

    batched_planner = BeamSearchPlanner(
        irn, beam_width=config["beam_width"], branch_factor=config["branch_factor"]
    ).fit(split)
    scalar_planner = BeamSearchPlanner(
        ScalarOnlyBackbone(irn),
        beam_width=config["beam_width"],
        branch_factor=config["branch_factor"],
    ).fit(split)

    with ForwardCounter(irn.module) as counter:
        scalar_paths, scalar_seconds = _timed(
            lambda: [
                scalar_planner.plan_path(history, objective, user_index=user, max_length=max_length)
                for history, objective, user in contexts
            ]
        )
        scalar_forwards = counter.count

    with ForwardCounter(irn.module) as counter:
        batched_paths, batched_seconds = _timed(
            lambda: batched_planner.plan_paths_batch(
                [c[0] for c in contexts],
                [c[1] for c in contexts],
                [c[2] for c in contexts],
                max_length=max_length,
            )
        )
        batched_forwards = counter.count

    return {
        "beam_width": config["beam_width"],
        "branch_factor": config["branch_factor"],
        "max_path_length": max_length,
        "num_instances": len(contexts),
        "scalar": _throughput(len(scalar_paths), scalar_forwards, scalar_seconds),
        "batched": _throughput(len(batched_paths), batched_forwards, batched_seconds),
        "forward_reduction": round(scalar_forwards / max(batched_forwards, 1), 2),
        "speedup": round(scalar_seconds / batched_seconds, 2) if batched_seconds > 0 else float("inf"),
        "plans_equal": scalar_paths == batched_paths,
    }


def _bench_greedy(irn: IRN, instances: list[EvaluationInstance], config: dict) -> dict:
    contexts = [
        (list(inst.history), inst.objective, inst.user_index) for inst in instances
    ]
    max_length = config["max_path_length"]

    with ForwardCounter(irn.module) as counter:
        scalar_paths, scalar_seconds = _timed(
            lambda: [
                irn.generate_path(history, objective, user_index=user, max_length=max_length)
                for history, objective, user in contexts
            ]
        )
        scalar_forwards = counter.count

    with ForwardCounter(irn.module) as counter:
        batched_paths, batched_seconds = _timed(
            lambda: irn.generate_paths_batch(
                [c[0] for c in contexts],
                [c[1] for c in contexts],
                [c[2] for c in contexts],
                max_length=max_length,
            )
        )
        batched_forwards = counter.count

    return {
        "max_path_length": max_length,
        "num_instances": len(contexts),
        "scalar": _throughput(len(scalar_paths), scalar_forwards, scalar_seconds),
        "batched": _throughput(len(batched_paths), batched_forwards, batched_seconds),
        "forward_reduction": round(scalar_forwards / max(batched_forwards, 1), 2),
        "speedup": round(scalar_seconds / batched_seconds, 2) if batched_seconds > 0 else float("inf"),
        "plans_equal": scalar_paths == batched_paths,
    }


def _bench_nextitem(irn: IRN, split: DatasetSplit, config: dict) -> dict:
    instances = split.test[: config["num_eval_instances"]]
    histories = [list(inst.history) for inst in instances]
    targets = [inst.target for inst in instances]
    users = [inst.user_index for inst in instances]

    with ForwardCounter(irn.module) as counter:
        scalar_ranks, scalar_seconds = _timed(
            lambda: [
                irn.rank_of(history, target, user_index=user)
                for history, target, user in zip(histories, targets, users)
            ]
        )
        scalar_forwards = counter.count

    with ForwardCounter(irn.module) as counter:
        batched_ranks, batched_seconds = _timed(
            lambda: irn.rank_of_batch(histories, targets, users)
        )
        batched_forwards = counter.count

    return {
        "num_instances": len(instances),
        "scalar": _throughput(len(scalar_ranks), scalar_forwards, scalar_seconds),
        "batched": _throughput(len(batched_ranks), batched_forwards, batched_seconds),
        "forward_reduction": round(scalar_forwards / max(batched_forwards, 1), 2),
        "ranks_equal": list(scalar_ranks) == list(batched_ranks),
    }


def _token_work(irn: IRN, fn) -> tuple[object, dict, float]:
    """Run ``fn`` and return (result, decode-stats delta, seconds)."""
    before = irn.decode_stats.snapshot()
    result, seconds = _timed(fn)
    delta = DecodeStats.delta(before, irn.decode_stats.snapshot())
    return result, delta, seconds


def _work_report(delta: dict, seconds: float) -> dict:
    return {
        "forwards": delta["forwards"],
        "tokens_encoded": delta["tokens_encoded"],
        "tokens_full": delta["tokens_full"],
        "tokens_incremental": delta["tokens_incremental"],
        "tokens_fallback": delta["tokens_fallback"],
        "seconds": round(seconds, 4),
        "forwards_per_sec": round(delta["forwards"] / seconds, 2) if seconds > 0 else float("inf"),
    }


def _bench_stepwise(
    irn: IRN, split: DatasetSplit, instances: list[EvaluationInstance], config: dict
) -> dict:
    """``next_step``-driven IRS evaluation: cached serving vs the PR 1 baseline.

    The workload interleaves single ``next_step`` requests across all
    instances in lockstep (online serving order).  The baseline planner is
    configured exactly like the pre-cache implementation — one replan slot,
    no plan memoisation, no decoding sessions — so every context switch
    forces a full from-scratch replan.  The cached planner keeps one evolving
    plan per context (plus the finished-plan LRU), so each context is planned
    once and then served from memory.  The semantic reference is *isolated*
    serving: a dedicated planner per context, which the cached planner must
    reproduce exactly.
    """
    contexts = [
        (list(inst.history), inst.objective, inst.user_index)
        for inst in instances[: config["num_stepwise_instances"]]
    ]
    max_length = config["max_path_length"]
    kwargs = dict(beam_width=config["beam_width"], branch_factor=config["branch_factor"])

    isolated = []
    for context in contexts:
        planner = BeamSearchPlanner(irn, max_length=max_length, **kwargs).fit(split)
        isolated.append(rollout_next_step(planner, [context], max_length)[0])

    baseline_planner = BeamSearchPlanner(
        irn,
        max_length=max_length,
        plan_cache_size=0,
        step_cache_size=1,
        use_decoding_sessions=False,
        **kwargs,
    ).fit(split)
    cached_planner = BeamSearchPlanner(irn, max_length=max_length, **kwargs).fit(split)

    baseline_paths, baseline_delta, baseline_seconds = _token_work(
        irn, lambda: rollout_next_step(baseline_planner, contexts, max_length)
    )
    cached_paths, cached_delta, cached_seconds = _token_work(
        irn, lambda: rollout_next_step(cached_planner, contexts, max_length)
    )

    return {
        "max_path_length": max_length,
        "num_instances": len(contexts),
        "baseline": _work_report(baseline_delta, baseline_seconds),
        "cached": _work_report(cached_delta, cached_seconds),
        "cache_counters": cached_planner.cache_info(),
        "token_work_reduction": round(
            baseline_delta["tokens_encoded"] / max(cached_delta["tokens_encoded"], 1), 2
        ),
        "speedup": round(baseline_seconds / cached_seconds, 2) if cached_seconds > 0 else float("inf"),
        "cached_paths_match_isolated": cached_paths == isolated,
        "baseline_paths_match_isolated": baseline_paths == isolated,
    }


def _bench_incremental(
    split: DatasetSplit, instances: list[EvaluationInstance], config: dict
) -> dict:
    """Beam planning with decoding sessions on vs off (exact-reuse regime).

    Uses a single-layer IRN, where prefix K/V reuse is exact under the PIM
    (see :mod:`repro.cache.kv`), so every depth encodes one new token per
    hypothesis instead of the full right-aligned window.  Plan memoisation is
    disabled on both planners — this isolates the incremental-decoding layer.
    The model window is sized to fit history + path: once a context outgrows
    the window the right-aligned batch starts sliding and the session
    (correctly) degrades to full re-encoding, which is the regime the other
    sections already cover.
    """
    contexts = [(list(inst.history), inst.objective, inst.user_index) for inst in instances]
    max_length = config["max_path_length"]
    window = max(len(context[0]) for context in contexts) + max_length + 1
    irn = IRN(**dict(config["irn"], num_layers=1, max_sequence_length=window)).fit(split)
    kwargs = dict(beam_width=config["beam_width"], branch_factor=config["branch_factor"])

    planner_off = BeamSearchPlanner(
        irn, plan_cache_size=0, use_decoding_sessions=False, **kwargs
    ).fit(split)
    planner_on = BeamSearchPlanner(irn, plan_cache_size=0, **kwargs).fit(split)

    def plan(planner: BeamSearchPlanner):
        return planner.plan_paths_batch(
            [c[0] for c in contexts],
            [c[1] for c in contexts],
            [c[2] for c in contexts],
            max_length=max_length,
        )

    repeats = config.get("wall_repeats", 1)

    def measure(planner: BeamSearchPlanner):
        # Token counters cover exactly the first run (they are deterministic
        # per run); wall-clock is min-of-repeats to filter scheduler noise.
        paths, delta, seconds = _token_work(irn, lambda: plan(planner))
        for _ in range(repeats - 1):
            _, again = _timed(lambda: plan(planner))
            seconds = min(seconds, again)
        return paths, delta, seconds

    off_paths, off_delta, off_seconds = measure(planner_off)
    on_paths, on_delta, on_seconds = measure(planner_on)

    return {
        "num_layers": 1,
        "max_path_length": max_length,
        "num_instances": len(contexts),
        "wall_repeats": repeats,
        "full_reencode": _work_report(off_delta, off_seconds),
        "incremental": _work_report(on_delta, on_seconds),
        "token_work_reduction": round(
            off_delta["tokens_encoded"] / max(on_delta["tokens_encoded"], 1), 2
        ),
        "speedup": round(off_seconds / on_seconds, 2) if on_seconds > 0 else float("inf"),
        "plans_equal": off_paths == on_paths,
    }


def _bench_sharded(
    irn: IRN, split: DatasetSplit, instances: list[EvaluationInstance], config: dict,
    shard_backend: "str | None" = None, vocab_shards: "int | None" = None,
) -> dict:
    """Worker-partitioned batched beam planning at 1 / 2 / 4 workers.

    The workload is the ``generate_records`` evaluation fan-out: one
    ``plan_paths_batch`` over all bench instances, with plan memoisation
    disabled so every run measures planning work, not cache reuse.  The
    serial planner (``num_workers=1``) is the reference; each worker count
    reports paths/sec, speedup over serial and scaling efficiency
    (speedup / workers), plus a plans-equality bit — the sharded results
    must be bit-identical, whatever the backend.  A fork-process run at 2
    workers double-checks cross-process parity when the platform has fork.

    Wall-clock scaling is machine-bound: with ``cpu_count`` cores, anything
    beyond ``cpu_count`` workers can only add partitioning overhead, which
    is why the section records the CPU count alongside the numbers.
    """
    contexts = [(list(inst.history), inst.objective, inst.user_index) for inst in instances]
    max_length = config["max_path_length"]
    vocab_shards = resolve_vocab_shards(vocab_shards)
    kwargs = dict(
        beam_width=config["beam_width"],
        branch_factor=config["branch_factor"],
        plan_cache_size=0,
        vocab_shards=vocab_shards,
    )
    args = ([c[0] for c in contexts], [c[1] for c in contexts], [c[2] for c in contexts])

    def run(planner: BeamSearchPlanner) -> tuple[list[list[int]], float]:
        return _timed(lambda: planner.plan_paths_batch(*args, max_length=max_length))

    backend = resolve_shard_backend(shard_backend, num_workers=4)

    # The 1-worker planner short-circuits the executor and IS the serial
    # reference — measuring it once serves as both the baseline and the
    # first sweep row (no duplicated planning pass).
    workers_report = []
    serial_paths: list[list[int]] = []
    serial_seconds = 0.0
    for num_workers in (1, 2, 4):
        planner = BeamSearchPlanner(
            irn, num_workers=num_workers, shard_backend=backend, **kwargs
        ).fit(split)
        paths, seconds = run(planner)
        if num_workers == 1:
            serial_paths, serial_seconds = paths, seconds
        speedup = serial_seconds / seconds if seconds > 0 else float("inf")
        workers_report.append(
            {
                "num_workers": num_workers,
                "seconds": round(seconds, 4),
                "paths_per_sec": round(len(paths) / seconds, 2) if seconds > 0 else float("inf"),
                "speedup_vs_serial": round(speedup, 2),
                "scaling_efficiency": round(speedup / num_workers, 2),
                "plans_equal_serial": paths == serial_paths,
            }
        )

    process_parity = None
    if fork_available():
        process_planner = BeamSearchPlanner(
            irn, num_workers=2, shard_backend="process", **kwargs
        ).fit(split)
        process_paths, _ = run(process_planner)
        process_parity = process_paths == serial_paths

    return {
        "max_path_length": max_length,
        "num_instances": len(contexts),
        "backend": backend,
        "vocab_shards": vocab_shards,
        "serial": {
            "seconds": round(serial_seconds, 4),
            "paths_per_sec": round(len(serial_paths) / serial_seconds, 2)
            if serial_seconds > 0
            else float("inf"),
        },
        "workers": workers_report,
        "process_parity": process_parity,
    }


def _bench_async_serving(
    irn: IRN, split: DatasetSplit, instances: list[EvaluationInstance], config: dict,
    shard_backend: "str | None" = None, vocab_shards: "int | None" = None,
) -> dict:
    """The ``next_step`` workload offered through the asynchronous loop.

    Two runs per worker-shard count (1 / 2 / 4 queues, matching the sharded
    section's sweep):

    * a **lockstep replay** of the stepwise serving trace, checked
      bit-identical against ``rollout_next_step`` on a sequentially driven
      planner — the acceptance contract (async serving changes when work
      happens, never what is answered);
    * a seeded **open-loop Poisson run** at ``serve_arrival_rate``
      requests/sec recording throughput, p50/p95/p99 latency from the
      scheduled arrival instants, queue-depth and micro-batch stats.

    Each worker count gets a fresh planner (cold caches), so the numbers
    measure the serving path, not accumulated memoisation.
    """
    from repro.evaluation.protocol import rollout_next_step as sequential_rollout
    from repro.serve import ServingLoop, replay_lockstep, run_open_loop

    contexts = [(list(inst.history), inst.objective, inst.user_index) for inst in instances]
    max_length = config["max_path_length"]
    kwargs = dict(
        beam_width=config["beam_width"],
        branch_factor=config["branch_factor"],
        vocab_shards=resolve_vocab_shards(vocab_shards),
    )
    backend = resolve_shard_backend(shard_backend, num_workers=4)
    num_requests = config["serve_requests_per_context"] * len(contexts)

    sequential_planner = BeamSearchPlanner(irn, max_length=max_length, **kwargs).fit(split)
    sequential_paths, sequential_seconds = _timed(
        lambda: sequential_rollout(sequential_planner, contexts, max_length)
    )

    workers_report = []
    for num_workers in (1, 2, 4):
        def make_planner():
            return BeamSearchPlanner(
                irn,
                max_length=max_length,
                num_workers=num_workers,
                shard_backend=backend,
                **kwargs,
            ).fit(split)

        # Parity replay and open-loop measurement each get a fresh planner
        # AND a fresh loop: the replay's queue/admission counters must not
        # leak into the open-loop report, and a cold-cache open loop serves
        # the representative replan-then-hit mix instead of pure hits.
        # The replay is repeated on a fresh cold-cache loop each time
        # (memoisation would turn a same-loop rerun into pure cache hits);
        # wall-clock is the min, parity must hold on every repeat.
        replay_seconds = math.inf
        parity = True
        for _ in range(config.get("wall_repeats", 1)):
            with ServingLoop(make_planner()) as loop:
                served_paths, run_seconds = _timed(
                    lambda: replay_lockstep(loop, contexts, max_length)
                )
                replay_served = loop.stats()["served"]
            replay_seconds = min(replay_seconds, run_seconds)
            parity = parity and served_paths == sequential_paths
        with ServingLoop(make_planner()) as open_loop_loop:
            open_loop = run_open_loop(
                open_loop_loop,
                contexts,
                arrival_rate=config["serve_arrival_rate"],
                num_requests=num_requests,
                seed=0,
                max_length=max_length,
            )
        workers_report.append(
            {
                "num_workers": num_workers,
                "responses_match_sequential": parity,
                "replay_seconds": round(replay_seconds, 4),
                "replay_requests_per_sec": (
                    round(replay_served / replay_seconds, 2)
                    if replay_seconds > 0
                    else float("inf")
                ),
                "open_loop": open_loop,
            }
        )

    return {
        "max_path_length": max_length,
        "num_contexts": len(contexts),
        "backend": backend,
        "vocab_shards": kwargs["vocab_shards"],
        "arrival_rate": config["serve_arrival_rate"],
        "open_loop_requests": num_requests,
        "sequential": {
            "seconds": round(sequential_seconds, 4),
            "requests_per_sec": (
                round(sum(len(path) for path in sequential_paths) / sequential_seconds, 2)
                if sequential_seconds > 0
                else float("inf")
            ),
        },
        "workers": workers_report,
    }


def _bench_replicated_serving(
    irn: IRN, split: DatasetSplit, instances: list[EvaluationInstance], config: dict,
    shard_backend: "str | None" = None, vocab_shards: "int | None" = None,
) -> dict:
    """Replicated serving at a shared generation, then under a hot refit.

    Two experiments:

    * **Parity** — the lockstep stepwise trace replayed through a
      2-replica :class:`~repro.replica.set.ReplicaSet` whose replicas wrap
      the same fitted backbone (one shared generation), checked
      bit-identical against sequential single-planner serving.  This is the
      replication rung's acceptance contract: the dispatcher's session
      affinity keeps every context's request sequence on one replica, so
      routing changes *where* work happens, never what is answered.
    * **Hot refit** — open-loop Poisson traffic with a refit armed
      mid-trace: the coordinator trains a fresh replica set off-path
      (independently fitted backbones — the factory is deterministic, so
      the new generation's weights equal the old ones and the experiment
      isolates the *protocol*), flips the generation atomically, and
      retires the old replicas by draining them dry.  The no-pause bits —
      zero errored requests, zero rejections under the ``block`` policy —
      are asserted by the perf gate; latency percentiles are reported per
      generation around the flip.

    The traffic window is sized from the measured replica build time so the
    refit has room to land mid-trace on fast and slow machines alike (the
    ``completed_during_trace`` bit records whether it did); the parity bit
    is deterministic either way.
    """
    from repro.evaluation.protocol import rollout_next_step as sequential_rollout
    from repro.replica import ReplicaSet, run_replicated_open_loop
    from repro.serve import replay_lockstep

    contexts = [(list(inst.history), inst.objective, inst.user_index) for inst in instances]
    max_length = config["max_path_length"]
    num_replicas = config["num_replicas"]
    kwargs = dict(
        beam_width=config["beam_width"],
        branch_factor=config["branch_factor"],
        vocab_shards=resolve_vocab_shards(vocab_shards),
    )
    backend = resolve_shard_backend(shard_backend, num_workers=1)

    sequential_planner = BeamSearchPlanner(irn, max_length=max_length, **kwargs).fit(split)
    sequential_paths = sequential_rollout(sequential_planner, contexts, max_length)

    def shared_factory():
        return BeamSearchPlanner(
            irn, max_length=max_length, shard_backend=backend, **kwargs
        ).fit(split)

    with ReplicaSet(shared_factory, num_replicas=num_replicas) as replica_set:
        served_paths, replay_seconds = _timed(
            lambda: replay_lockstep(replica_set, contexts, max_length)
        )
        parity_stats = replica_set.stats()

    def fresh_factory():
        backbone = IRN(**config["irn"]).fit(split)
        return BeamSearchPlanner(
            backbone, max_length=max_length, shard_backend=backend, **kwargs
        ).fit(split)

    build_started = time.perf_counter()
    refit_set = ReplicaSet(fresh_factory, num_replicas=num_replicas).start()
    build_seconds = time.perf_counter() - build_started
    refit_at = config["replica_refit_at"]
    # The refit retrains num_replicas backbones off-path; give the trace
    # room for the flip plus post-flip traffic (machine-bound, recorded).
    duration = max(1.5, refit_at + 3.0 * build_seconds + 0.75)
    try:
        open_loop = run_replicated_open_loop(
            refit_set,
            contexts,
            arrival_rate=config["replica_arrival_rate"],
            duration=duration,
            seed=0,
            max_length=max_length,
            refit_at=refit_at,
        )
    finally:
        refit_set.close()

    return {
        "max_path_length": max_length,
        "num_contexts": len(contexts),
        "num_replicas": num_replicas,
        "backend": backend,
        "vocab_shards": kwargs["vocab_shards"],
        "parity": {
            "responses_match_single_replica": served_paths == sequential_paths,
            "replay_seconds": round(replay_seconds, 4),
            "served": parity_stats["served"],
            "dispatch": parity_stats["dispatch"],
        },
        "hot_refit": open_loop,
        "replica_build_seconds": round(build_seconds, 4),
    }


def _bench_distributed_serving(
    irn: IRN, split: DatasetSplit, instances: list[EvaluationInstance], config: dict,
    shard_backend: "str | None" = None, vocab_shards: "int | None" = None,
) -> dict:
    """Multi-process serving over the binary transport vs in-process fleets.

    Four experiments:

    * **Codec** — ns/request to encode and decode request/response batches
      and the heartbeat frame, pure in-memory (no sockets): the fixed tax
      the wire protocol adds to every envelope.
    * **Workers** — at each worker count, the lockstep stepwise trace
      replayed through a :class:`~repro.distributed.RemoteReplicaSet`
      (checked bit-identical against sequential serving — the acceptance
      contract of the distributed rung), then a burst of distinct
      ``plan_paths`` requests timed end to end, against an in-process
      :class:`~repro.replica.set.ReplicaSet` burst at the same count.
      Sojourn percentiles are parent-clock (enqueue-to-resolve), so the
      remote numbers include codec + socket + re-plan inside the worker.
    * **Heartbeat** — observed beat rate and frame bytes on an idle fleet:
      the standing overhead of the failure detector's load signals.
    * **Chaos** — SIGKILL one of two workers mid-burst: every admitted
      future must still resolve bit-identically (re-dispatch to the
      survivor), and the victim must flip unhealthy within the
      missed-heartbeat budget.  The gate enforces these bits.

    The burst histories are rotated per request so each envelope is a
    distinct plan (``history[r:] + history[:r]``); short histories can
    repeat a rotation, which hits the plan cache identically for the
    remote and in-process fleets and so cancels out of the comparison.
    On platforms without ``fork`` the section records the codec numbers
    only and stamps ``fork_available: false`` (the gate skips it).
    """
    import signal

    from repro.config import resolve_heartbeat_misses
    from repro.distributed import RemoteReplicaSet, wire
    from repro.replica import ReplicaSet
    from repro.serve import latency_percentiles, replay_lockstep
    from repro.serve.request import ServeRequest

    contexts = [(list(inst.history), inst.objective, inst.user_index) for inst in instances]
    max_length = config["max_path_length"]
    worker_counts = list(config["distributed_worker_counts"])
    heartbeat_interval = config["distributed_heartbeat_interval"]
    codec_repeats = config["distributed_codec_repeats"]
    kwargs = dict(
        beam_width=config["beam_width"],
        branch_factor=config["branch_factor"],
        vocab_shards=resolve_vocab_shards(vocab_shards),
    )
    backend = resolve_shard_backend(shard_backend, num_workers=1)

    # ---- codec: ns per envelope, no processes involved ---- #
    codec_batch = 64
    entries = []
    for i in range(codec_batch):
        history, objective, user = contexts[i % len(contexts)]
        entries.append(
            (i, ServeRequest.create("plan_paths", history, objective, user_index=user))
        )
    request_payload = wire.encode_request_batch(entries)
    records = [
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
    response_payload = wire.encode_response_batch(records)
    heartbeat_payload = wire.encode_heartbeat(0, 1, 1, True, 2, 100, 98, 1, 64, 1.5, 8.25)
    codec = {
        "batch_size": codec_batch,
        "request_encode_ns": round(
            _ns_per_call(lambda: wire.encode_request_batch(entries), codec_repeats)
            / codec_batch, 1,
        ),
        "request_decode_ns": round(
            _ns_per_call(lambda: wire.decode_request_batch(request_payload), codec_repeats)
            / codec_batch, 1,
        ),
        "response_encode_ns": round(
            _ns_per_call(lambda: wire.encode_response_batch(records), codec_repeats)
            / codec_batch, 1,
        ),
        "response_decode_ns": round(
            _ns_per_call(lambda: wire.decode_response_batch(response_payload), codec_repeats)
            / codec_batch, 1,
        ),
        "heartbeat_roundtrip_ns": round(
            _ns_per_call(
                lambda: wire.decode_heartbeat(
                    wire.encode_heartbeat(0, 1, 1, True, 2, 100, 98, 1, 64, 1.5, 8.25)
                ),
                codec_repeats,
            ), 1,
        ),
        "request_bytes_per_envelope": len(request_payload) // codec_batch,
        "response_bytes_per_envelope": len(response_payload) // codec_batch,
        "heartbeat_frame_bytes": wire.FRAME_HEADER.size + len(heartbeat_payload),
    }

    section = {
        "max_path_length": max_length,
        "num_contexts": len(contexts),
        "backend": backend,
        "vocab_shards": kwargs["vocab_shards"],
        "transport": "process",
        "fork_available": fork_available(),
        "heartbeat_interval": heartbeat_interval,
        "codec": codec,
    }
    if not section["fork_available"]:  # pragma: no cover - POSIX CI always forks
        return section

    def shared_factory():
        return BeamSearchPlanner(
            irn, max_length=max_length, shard_backend=backend, **kwargs
        ).fit(split)

    reference = shared_factory()
    sequential_paths = rollout_next_step(reference, contexts, max_length)

    # Distinct plans per burst envelope: rotate each context's history so
    # the plan-cache key changes request to request.
    burst = int(config["distributed_burst_requests"])
    burst_contexts = []
    for j in range(burst):
        history, objective, user = contexts[j % len(contexts)]
        rotation = (j // len(contexts)) % len(history)
        burst_contexts.append((history[rotation:] + history[:rotation], objective, user))
    expected_burst = [
        reference.plan_path(history, objective, user_index=user)
        for history, objective, user in burst_contexts
    ]

    def run_burst(serving_set) -> "tuple[dict, list]":
        requests = [
            ServeRequest.create("plan_paths", history, objective, user_index=user)
            for history, objective, user in burst_contexts
        ]
        start = time.perf_counter()
        for request in requests:
            serving_set.enqueue(request)
        answers = [request.future.result(timeout=300) for request in requests]
        wall = time.perf_counter() - start
        sojourn_ms = [
            1000.0 * (request.completed_at - request.enqueued_at) for request in requests
        ]
        return {
            "requests": len(requests),
            "seconds": round(wall, 4),
            "paths_per_sec": round(len(requests) / wall, 2) if wall > 0 else float("inf"),
            "sojourn_ms": latency_percentiles(sojourn_ms),
        }, answers

    workers_report = []
    for num_workers in worker_counts:
        with RemoteReplicaSet(
            shared_factory,
            num_replicas=num_workers,
            heartbeat_interval=heartbeat_interval,
        ) as remote_set:
            served_paths, replay_seconds = _timed(
                lambda: replay_lockstep(remote_set, contexts, max_length)
            )
            remote_burst, remote_answers = run_burst(remote_set)
        with ReplicaSet(shared_factory, num_replicas=num_workers) as local_set:
            local_burst, _local_answers = run_burst(local_set)
        workers_report.append(
            {
                "num_workers": num_workers,
                "responses_match_sequential": served_paths == sequential_paths,
                "burst_answers_match": remote_answers == expected_burst,
                "replay_seconds": round(replay_seconds, 4),
                "remote": remote_burst,
                "in_process": local_burst,
                "remote_vs_in_process": (
                    round(remote_burst["paths_per_sec"] / local_burst["paths_per_sec"], 3)
                    if local_burst["paths_per_sec"] > 0
                    else float("inf")
                ),
            }
        )

    # ---- heartbeat overhead + SIGKILL chaos on one 2-worker fleet ---- #
    heartbeat_misses = resolve_heartbeat_misses(None)
    with RemoteReplicaSet(
        shared_factory, num_replicas=2, heartbeat_interval=heartbeat_interval
    ) as chaos_set:
        beats_before = chaos_set.stats()["transport"]["heartbeats"]
        observe_started = time.perf_counter()
        time.sleep(10 * heartbeat_interval)
        observe_seconds = time.perf_counter() - observe_started
        beats = chaos_set.stats()["transport"]["heartbeats"] - beats_before
        heartbeat = {
            "interval_s": heartbeat_interval,
            "expected_per_worker_per_sec": round(1.0 / heartbeat_interval, 2),
            "observed_per_worker_per_sec": round(beats / 2 / observe_seconds, 2),
            "frame_bytes": codec["heartbeat_frame_bytes"],
            "bytes_per_sec": round(beats * codec["heartbeat_frame_bytes"] / observe_seconds, 1),
        }

        requests = [
            ServeRequest.create("plan_paths", history, objective, user_index=user)
            for history, objective, user in burst_contexts
        ]
        for request in requests:
            chaos_set.enqueue(request)
        victim = chaos_set.active_replicas()[0]
        os.kill(victim.worker.pid, signal.SIGKILL)
        killed_at = time.perf_counter()
        while victim.healthy and time.perf_counter() - killed_at < 30.0:
            time.sleep(0.001)
        detect_seconds = time.perf_counter() - killed_at
        answers = [request.future.result(timeout=300) for request in requests]
        chaos_stats = chaos_set.stats()["transport"]
    # Budget: K missed beats plus one interval of detector granularity.
    budget_seconds = heartbeat_misses * heartbeat_interval + heartbeat_interval
    chaos = {
        "num_workers": 2,
        "requests": len(requests),
        "zero_dropped": len(answers) == len(requests)
        and all(request.future.done() for request in requests),
        "answers_match": answers == expected_burst,
        "redispatched": chaos_stats["redispatched"],
        "duplicate_responses": chaos_stats["duplicate_responses"],
        "detect_seconds": round(detect_seconds, 4),
        "budget_seconds": round(budget_seconds, 4),
        "unhealthy_within_budget": detect_seconds <= budget_seconds,
    }

    section.update(
        {
            "burst_requests": burst,
            "workers": workers_report,
            "heartbeat": heartbeat,
            "chaos": chaos,
        }
    )
    return section


def _ns_per_call(fn, repeats: int) -> float:
    """Average wall-clock nanoseconds per call over ``repeats`` timed calls."""
    fn()  # warm caches / BLAS thread pools outside the timed window
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1e9


def _bench_tensor_ops(
    irn: IRN, split: DatasetSplit, instances: list[EvaluationInstance], config: dict
) -> dict:
    """Per-op microbenchmarks of the tensor engine at serving shapes.

    Shapes mirror what the decode loop actually offers the kernels: the
    micro-batch rows are ``num_instances * beam_width`` hypotheses, each
    decode step queries 1-2 positions (new token + re-projected objective)
    against a key window of history + path + objective, split across the
    configured head count.  Alongside the wall-clock ns/call numbers (which
    are machine-bound and document the matmul-vs-einsum specialization
    choice), the section records four deterministic contract bits the perf
    gate enforces: fused↔unfused attention parity, the arena cache's
    ``no_prefix_copy`` allocation proof, the float32 mode's documented logit
    tolerance, and the in-place-ops grad guard.
    """
    from repro.cache.kv import LayerKVCache, allocation_stats, reset_allocation_stats
    from repro.nn import functional as F
    from repro.nn.attention import NEG_INF, scaled_dot_product_attention
    from repro.nn.tensor import Tensor, no_grad
    from repro.utils.exceptions import ConfigurationError as _ConfigError

    irn_cfg = config["irn"]
    heads = irn_cfg["num_heads"]
    d_head = irn_cfg["embedding_dim"] // heads
    batch = config["num_instances"] * config["beam_width"]
    q_len = 2  # new token + re-projected objective per objective-mode step
    k_len = max(len(inst.history) for inst in instances) + config["max_path_length"] + 1
    repeats = config["tensor_ops_repeats"]
    steps = config["tensor_ops_decode_steps"]

    rng = np.random.default_rng(0)
    q = rng.normal(size=(batch, heads, q_len, d_head))
    k = rng.normal(size=(batch, heads, k_len, d_head))
    v = rng.normal(size=(batch, heads, k_len, d_head))
    mask = np.zeros((1, 1, q_len, k_len))
    mask[..., 0, -1] = NEG_INF  # objective-column masking, as in real decode rows
    scores_buf = np.empty((batch, heads, q_len, k_len))
    softmax_buf = rng.normal(size=(batch, heads, q_len, k_len))
    residual_a = rng.normal(size=(batch, q_len, heads * d_head))
    residual_b = rng.normal(size=(batch, q_len, heads * d_head))

    with no_grad():
        ops_ns = {
            "score_matmul": _ns_per_call(
                lambda: F._contract_scores(q, k, "matmul", out=scores_buf), repeats
            ),
            "score_einsum": _ns_per_call(
                lambda: F._contract_scores(q, k, "einsum", out=scores_buf), repeats
            ),
            "softmax_inplace": _ns_per_call(lambda: F.softmax_(softmax_buf), repeats),
            "softmax_graph": _ns_per_call(
                lambda: F.softmax(Tensor(softmax_buf), axis=-1), repeats
            ),
            "add_inplace": _ns_per_call(
                lambda: Tensor(residual_a).add_(residual_b), repeats
            ),
            "add_graph": _ns_per_call(
                lambda: Tensor(residual_a) + Tensor(residual_b), repeats
            ),
        }

        fused_ns = _ns_per_call(
            lambda: F.fused_attention(q, k, v, mask=mask), repeats
        )
        q_t, k_t, v_t = Tensor(q), Tensor(k), Tensor(v)
        unfused_ns = _ns_per_call(
            lambda: scaled_dot_product_attention(q_t, k_t, v_t, mask=mask, fused=False),
            repeats,
        )
        fused_out, fused_weights = F.fused_attention(q, k, v, mask=mask)
        unfused_out, unfused_weights = scaled_dot_product_attention(
            q_t, k_t, v_t, mask=mask, fused=False
        )
        parity_diff = max(
            float(np.max(np.abs(fused_out - unfused_out.data))),
            float(np.max(np.abs(fused_weights - unfused_weights.data))),
        )
        f32_out, _ = F.fused_attention(q, k, v, mask=mask, dtype=np.float32)
        f32_diff = float(np.max(np.abs(f32_out.astype(np.float64) - fused_out)))
        fused_f32_ns = _ns_per_call(
            lambda: F.fused_attention(q, k, v, mask=mask, dtype=np.float32), repeats
        )

    # The in-place ops must refuse to run where they would corrupt a graph.
    try:
        Tensor(residual_a).add_(residual_b)
        inplace_guard_raises = False
    except _ConfigError:
        inplace_guard_raises = True

    def decode_allocation(growth: str) -> dict:
        """Simulated objective-mode decode loop over one layer cache."""
        prefix = rng.normal(size=(batch, heads, k_len - steps - 1, d_head))
        step_cols = rng.normal(size=(batch, heads, 2, d_head))
        cache = LayerKVCache(growth=growth)
        cache.extend(prefix, prefix.copy())
        # Count only the decode steps: the one-off prefix encode costs the
        # same under every policy, the per-step appends are what differ.
        reset_allocation_stats()
        extend_ns = _ns_per_call(
            lambda: cache.extend(step_cols, step_cols, persist=1), steps
        )
        stats = allocation_stats()
        reset_allocation_stats()
        return {
            "growth": growth,
            "steps": steps,
            "prefix_length": int(prefix.shape[2]),
            "extend_ns": round(extend_ns, 1),
            "arena_allocated_bytes": stats["arena_allocated_bytes"],
            "copied_bytes": stats["copied_bytes"],
            "concat_equivalent_bytes": stats["concat_equivalent_bytes"],
            "copied_bytes_per_step": round(stats["copied_bytes"] / max(stats["extend_calls"], 1)),
            "copy_reduction": round(
                stats["concat_equivalent_bytes"] / max(stats["copied_bytes"], 1), 2
            ),
        }

    arena = decode_allocation("geometric")
    exact = decode_allocation("exact")

    return {
        "shapes": {
            "batch": batch,
            "heads": heads,
            "query_len": q_len,
            "key_len": k_len,
            "d_head": d_head,
        },
        "repeats": repeats,
        "ops_ns": {name: round(ns, 1) for name, ns in ops_ns.items()},
        "attention": {
            "fused_ns": round(fused_ns, 1),
            "unfused_ns": round(unfused_ns, 1),
            "fused_speedup": round(unfused_ns / fused_ns, 2) if fused_ns > 0 else float("inf"),
            "max_abs_diff": parity_diff,
            "fused_parity": bool(parity_diff <= 1e-9),
        },
        "float32": {
            "fused_ns": round(fused_f32_ns, 1),
            "speedup_vs_f64": round(fused_ns / fused_f32_ns, 2) if fused_f32_ns > 0 else float("inf"),
            "max_abs_diff": f32_diff,
            "tolerance": 5e-4,
            "within_tolerance": bool(f32_diff <= 5e-4),
        },
        "decode_allocation": {
            "arena": arena,
            "exact_growth": exact,
            # The contract bit: a decode step copies (much) less than the
            # concatenate-per-extend baseline, i.e. never the full prefix.
            "no_prefix_copy": bool(
                arena["copied_bytes"] < arena["concat_equivalent_bytes"]
            ),
        },
        "inplace_guard_raises": inplace_guard_raises,
    }


def _bench_observability(
    irn: IRN, split: DatasetSplit, instances: list[EvaluationInstance], config: dict,
    shard_backend: "str | None" = None, vocab_shards: "int | None" = None,
) -> dict:
    """The observability overhead contract: tracing must be free when off.

    Four experiments over the open-loop ``next_step`` workload:

    * **Disabled no-op** — the default (untraced) serving loop, with the
      process-wide ``obs.trace`` allocation counters snapshotted around the
      run.  A zero delta proves the disabled path allocates no traces and
      no spans — a *structural* no-op, not merely a fast one.  The
      open-loop p95 of this run is the overhead baseline.
    * **Enabled overhead** — the same workload with a full-sampling tracer
      installed; p95 is min-of-``wall_repeats`` on both sides and the
      contract is ``enabled_p95 <= disabled_p95 + budget`` with
      ``budget = max(5% of disabled p95, 2ms)`` — the floor absorbs timer
      noise on machines where the p95 itself is a couple of milliseconds.
    * **Deterministic trace IDs** — every enabled repeat runs the
      identically-seeded trace against a fresh tracer; the sorted trace-ID
      lists must be identical across repeats (IDs derive from routing keys
      and per-key ordinals, never wall time or object identity).
    * **Parity with tracing on** — the lockstep replay bits from the async
      (2 worker shards) and replicated (N replicas) sections, re-checked
      with tracing enabled: instrumentation must never change what is
      answered.
    """
    from repro.evaluation.protocol import rollout_next_step as sequential_rollout
    from repro.obs import Tracer, get_registry
    from repro.replica import ReplicaSet
    from repro.serve import ServingLoop, replay_lockstep, run_open_loop

    contexts = [(list(inst.history), inst.objective, inst.user_index) for inst in instances]
    max_length = config["max_path_length"]
    kwargs = dict(
        beam_width=config["beam_width"],
        branch_factor=config["branch_factor"],
        vocab_shards=resolve_vocab_shards(vocab_shards),
    )
    backend = resolve_shard_backend(shard_backend, num_workers=2)
    num_requests = config["serve_requests_per_context"] * len(contexts)
    repeats = config.get("wall_repeats", 1)

    def make_planner(num_workers: int = 1):
        return BeamSearchPlanner(
            irn,
            max_length=max_length,
            num_workers=num_workers,
            shard_backend=backend,
            **kwargs,
        ).fit(split)

    def open_loop_p95(tracer: "Tracer | None") -> tuple[float, dict]:
        # Fresh planner AND loop per measurement (cold caches, clean queue
        # counters), mirroring the async section's discipline.
        with ServingLoop(make_planner(), tracer=tracer) as loop:
            report = run_open_loop(
                loop,
                contexts,
                arrival_rate=config["serve_arrival_rate"],
                num_requests=num_requests,
                seed=0,
                max_length=max_length,
            )
        return report["latency_ms"]["p95"], report

    # -- disabled baseline: p95 + the structural no-op proof ------------- #
    registry = get_registry()
    counters_before = registry.snapshot("obs.trace")["counters"]
    disabled_p95 = math.inf
    disabled_report: dict = {}
    for _ in range(repeats):
        p95, report = open_loop_p95(None)
        if p95 < disabled_p95:
            disabled_p95, disabled_report = p95, report
    counters_after = registry.snapshot("obs.trace")["counters"]
    allocation_delta = {
        name.rsplit(".", 1)[-1]: counters_after.get(name, 0) - counters_before.get(name, 0)
        for name in counters_after
    }
    disabled_noop = all(delta == 0 for delta in allocation_delta.values())

    # -- enabled runs: p95, determinism, span inventory ------------------ #
    enabled_p95 = math.inf
    enabled_report: dict = {}
    trace_id_runs: "list[list[str]]" = []
    span_summary: dict = {}
    traces_retained = 0
    for _ in range(repeats):
        tracer = Tracer(enabled=True, sample_rate=1.0)
        p95, report = open_loop_p95(tracer)
        if p95 < enabled_p95:
            enabled_p95, enabled_report = p95, report
        trace_id_runs.append(sorted(tracer.trace_ids()))
        span_summary = tracer.summary()
        traces_retained = len(tracer.trace_ids())
    deterministic_trace_ids = all(ids == trace_id_runs[0] for ids in trace_id_runs[1:])

    budget_ms = max(0.05 * disabled_p95, 2.0)
    overhead_ms = enabled_p95 - disabled_p95

    # -- parity with tracing enabled ------------------------------------- #
    sequential_planner = BeamSearchPlanner(irn, max_length=max_length, **kwargs).fit(split)
    sequential_paths = sequential_rollout(sequential_planner, contexts, max_length)

    with ServingLoop(
        make_planner(num_workers=2), tracer=Tracer(enabled=True, sample_rate=1.0)
    ) as loop:
        async_paths = replay_lockstep(loop, contexts, max_length)

    replica_tracer = Tracer(enabled=True, sample_rate=1.0)
    def shared_factory():
        return BeamSearchPlanner(
            irn, max_length=max_length, shard_backend=backend, **kwargs
        ).fit(split)
    with ReplicaSet(
        shared_factory, num_replicas=config["num_replicas"], tracer=replica_tracer
    ) as replica_set:
        replicated_paths = replay_lockstep(replica_set, contexts, max_length)

    return {
        "max_path_length": max_length,
        "num_contexts": len(contexts),
        "backend": backend,
        "arrival_rate": config["serve_arrival_rate"],
        "open_loop_requests": num_requests,
        "wall_repeats": repeats,
        "disabled": {
            "p95_ms": disabled_p95,
            "throughput_rps": disabled_report.get("throughput_rps"),
            "allocation_delta": allocation_delta,
        },
        "enabled": {
            "p95_ms": enabled_p95,
            "throughput_rps": enabled_report.get("throughput_rps"),
            "sample_rate": 1.0,
            "traces_retained": traces_retained,
            "span_summary": span_summary,
        },
        "overhead": {
            "p95_delta_ms": round(overhead_ms, 3),
            "budget_ms": round(budget_ms, 3),
            "within_budget": bool(enabled_p95 <= disabled_p95 + budget_ms),
        },
        "disabled_noop": bool(disabled_noop),
        "deterministic_trace_ids": bool(deterministic_trace_ids),
        "async_parity_with_tracing": async_paths == sequential_paths,
        "replicated_parity_with_tracing": replicated_paths == sequential_paths,
    }


def _step_latency_p95_ms(planner, contexts, plan_max_length: int) -> float:
    """p95 wall-clock latency of serial ``next_step`` calls over ``contexts``.

    Default caches stay on: the sample mixes the first-call replan with the
    subsequent served-from-plan hits — the serving distribution whose tail
    the retrieval section is trying to move.
    """
    latencies: "list[float]" = []
    for history, objective, user in contexts:
        path: "list[int]" = []
        for _ in range(plan_max_length):
            started = time.perf_counter()
            item = planner.next_step(history, objective, path, user_index=user)
            latencies.append(time.perf_counter() - started)
            if item is None:
                break
            path.append(item)
    return round(float(np.percentile(np.asarray(latencies) * 1e3, 95)), 3)


def _bench_two_stage_retrieval(config: dict) -> dict:
    """Exact vs candidate-pruned planning across vocab-size tiers.

    Per tier: a streaming-store corpus and a small single-layer IRN are
    built from scratch (the tier IS the vocabulary size — nothing is shared
    with the other sections), then one exact planner and one pruned planner
    per generator backend plan the same contexts with plan memoisation off.
    Reported per generator: paths/sec and speedup over the exact baseline,
    p95 ``next_step`` latency, candidate-set sizes, fallback counts,
    overlap@k of the candidate sets against the exact score rows, and mean
    plan regret (exact-plan score minus pruned-plan score under exact
    replay; ``None`` when no finite comparison exists).  Deterministic
    bits: ``full_vocab_parity`` — at the smallest tier, planning through
    the pruning machinery with :class:`~repro.retrieval.FullVocabGenerator`
    must be bit-identical to the exact planner — and
    ``objective_in_candidates`` across every context and backend.
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
    repeats = config.get("wall_repeats", 1)
    plan_length = r["plan_max_length"]
    overlap_k = r["overlap_k"]
    planner_kwargs = dict(
        beam_width=r["beam_width"], branch_factor=r["branch_factor"]
    )

    full_vocab_parity = True
    objective_in_candidates = True
    tiers_report: "list[dict]" = []
    for tier_index, num_items in enumerate(r["vocab_tiers"]):
        with tempfile.TemporaryDirectory(prefix="repro-bench-retrieval-") as tmp:
            store = build_streaming_store(
                StreamingSyntheticConfig(
                    num_items=num_items,
                    num_users=r["num_users"],
                    min_events=r["min_events"],
                    max_events=r["max_events"],
                    seed=0,
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
            args = (
                [c[0] for c in contexts],
                [c[1] for c in contexts],
                [c[2] for c in contexts],
            )

            exact_planner = BeamSearchPlanner(
                irn, plan_cache_size=0, **planner_kwargs
            ).fit(split)
            exact_paths, exact_seconds = _timed_best(
                lambda: exact_planner.plan_paths_batch(*args, max_length=plan_length),
                repeats,
            )
            exact_scores = irn.score_with_objective_batch(*args)
            exact_step_p95 = _step_latency_p95_ms(
                BeamSearchPlanner(irn, max_length=plan_length, **planner_kwargs).fit(split),
                contexts,
                plan_length,
            )

            generators_report: dict = {}
            best_speedup = 0.0
            for spec in ("cooccurrence", "ann"):
                generator = make_generator(spec, num_candidates=r["num_candidates"])
                _, fit_seconds = _timed(lambda: generator.fit(split.corpus))
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
                pruned_planner = BeamSearchPlanner(
                    irn,
                    candidate_generator=generator,
                    plan_cache_size=0,
                    **planner_kwargs,
                ).fit(split)
                pruned_paths, pruned_seconds = _timed_best(
                    lambda: pruned_planner.plan_paths_batch(
                        *args, max_length=plan_length
                    ),
                    repeats,
                )
                regrets = [
                    plan_regret(irn, history, objective, exact, pruned, user)
                    for (history, objective, user), exact, pruned in zip(
                        contexts, exact_paths, pruned_paths
                    )
                ]
                finite_regrets = [value for value in regrets if np.isfinite(value)]
                retrieval_counters = pruned_planner.cache_info()["retrieval"]
                speedup = (
                    round(exact_seconds / pruned_seconds, 2)
                    if pruned_seconds > 0
                    else float("inf")
                )
                best_speedup = max(best_speedup, speedup)
                generators_report[spec] = {
                    "fit_seconds": round(fit_seconds, 4),
                    "seconds": round(pruned_seconds, 4),
                    "paths_per_sec": (
                        round(len(pruned_paths) / pruned_seconds, 2)
                        if pruned_seconds > 0
                        else float("inf")
                    ),
                    "speedup_vs_exact": speedup,
                    "step_p95_ms": _step_latency_p95_ms(
                        BeamSearchPlanner(
                            irn,
                            candidate_generator=generator,
                            max_length=plan_length,
                            **planner_kwargs,
                        ).fit(split),
                        contexts,
                        plan_length,
                    ),
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
                }

            if tier_index == 0:
                parity_planner = BeamSearchPlanner(
                    irn,
                    candidate_generator=FullVocabGenerator(),
                    plan_cache_size=0,
                    **planner_kwargs,
                ).fit(split)
                parity_paths = parity_planner.plan_paths_batch(
                    *args, max_length=plan_length
                )
                full_vocab_parity = full_vocab_parity and parity_paths == exact_paths

            tiers_report.append(
                {
                    "num_items": num_items,
                    "vocab_size": split.corpus.vocab.size,
                    "num_events": store.num_events,
                    "num_contexts": len(contexts),
                    "exact": {
                        "seconds": round(exact_seconds, 4),
                        "paths_per_sec": (
                            round(len(exact_paths) / exact_seconds, 2)
                            if exact_seconds > 0
                            else float("inf")
                        ),
                        "step_p95_ms": exact_step_p95,
                    },
                    "generators": generators_report,
                    "best_speedup": best_speedup,
                    "peak_rss_kb": peak_rss_kb(),
                }
            )

    return {
        "profile": config["profile"],
        "num_candidates": r["num_candidates"],
        "overlap_k": overlap_k,
        "beam_width": r["beam_width"],
        "branch_factor": r["branch_factor"],
        "plan_max_length": plan_length,
        "wall_repeats": repeats,
        "full_vocab_parity": bool(full_vocab_parity),
        "objective_in_candidates": bool(objective_in_candidates),
        "tiers": tiers_report,
    }


def _bench_multi_tenant(
    irn: IRN, split: DatasetSplit, instances: list[EvaluationInstance], config: dict,
) -> dict:
    """Multi-tenant serving: per-kind parity, isolation, A/B determinism.

    Three deterministic gate contracts over one in-process tenanted fleet
    (a :class:`~repro.serve.loop.ServingLoop` holding a planner tenant, a
    recommender tenant and a knowledge-graph tenant):

    * **Per-kind parity** — every typed request kind (``next_step`` /
      ``plan_paths`` / ``rank`` / ``kg_path``) served through the tenant
      registry must answer bit-identically to calling the tenant's model
      directly (the multiplexed drain changes *where* the call happens,
      never what it returns).  Per kind: the parity bit and the mean
      serve-latency in microseconds.
    * **Tenant isolation** — a tenant bounded at ``max_inflight`` under
      the reject policy overflows while the drains are held; every reject
      must land on the noisy tenant's own admission scope, and a
      neighbouring unbounded tenant enqueued through the same loop must
      serve its full cohort with zero rejects.
    * **A/B determinism** — two identically-seeded runs of the online A/B
      harness (:func:`repro.tenant.ab.run_ab`, simulated cohorts against
      the control/treatment tenants) must produce identical experiment
      summaries, latency percentiles excluded (wall-clock is the one
      nondeterministic field).
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

    max_length = config["max_path_length"]
    planner = BeamSearchPlanner(
        irn,
        beam_width=config["beam_width"],
        branch_factor=config["branch_factor"],
        max_length=max_length,
    ).fit(split)
    markov = MarkovChainRecommender().fit(split)
    graph = ItemKnowledgeGraph().build(split.corpus)

    def registry() -> TenantRegistry:
        reg = TenantRegistry()
        reg.add("irs", planner)
        reg.add("zoo", markov)
        reg.add("kg", graph)
        return reg

    # ---- per-kind parity + serve latency through the tenanted loop ---- #
    contexts = [
        (list(inst.history), inst.objective, inst.user_index) for inst in instances[:8]
    ]
    kg_pairs = [(history[-1], objective) for history, objective, _ in contexts]
    per_kind: "dict[str, dict]" = {}
    with ServingLoop(None, tenants=registry()) as loop:
        kind_traffic = {
            "next_step": (
                [
                    NextStepRequest(
                        history=h, objective=o, user_index=u, tenant="irs"
                    )
                    for h, o, u in contexts
                ],
                [
                    planner.plan_for_requests([("next_step", tuple(h), o, (), u, None)])[0]
                    for h, o, u in contexts
                ],
            ),
            "plan_paths": (
                [
                    PlanRequest(
                        history=h, objective=o, user_index=u,
                        max_length=max_length, tenant="irs",
                    )
                    for h, o, u in contexts
                ],
                [
                    planner.plan_for_requests(
                        [("plan_paths", tuple(h), o, (), u, max_length)]
                    )[0]
                    for h, o, u in contexts
                ],
            ),
            "rank": (
                [
                    RankRequest(history=h, k=10, user_index=u, tenant="zoo")
                    for h, _, u in contexts
                ],
                [
                    markov.top_k(list(h), 10, user_index=u) for h, _, u in contexts
                ],
            ),
            "kg_path": (
                [
                    KGPathRequest(source=s, target=t, tenant="kg")
                    for s, t in kg_pairs
                ],
                [graph.shortest_item_path(s, t) for s, t in kg_pairs],
            ),
        }
        for kind, (requests, expected) in kind_traffic.items():
            started = time.perf_counter()
            answers = [loop.serve(request).result().answer for request in requests]
            elapsed = time.perf_counter() - started
            per_kind[kind] = {
                "requests": len(requests),
                "parity": answers == expected,
                "mean_us": round(1e6 * elapsed / len(requests), 1),
            }

    # ---- isolation: a noisy tenant's rejects never touch its neighbour -- #
    bound = 2
    noisy_attempts = 6
    isolation_registry = TenantRegistry()
    isolation_registry.add("noisy", planner, max_inflight=bound, admission_policy="reject")
    isolation_registry.add("neighbour", markov)
    loop = ServingLoop(None, tenants=isolation_registry)
    history, objective, user = contexts[0]
    noisy_rejects = 0
    futures = []
    # The loop is built but NOT started: admitted envelopes sit in the
    # shard queue holding their tenant's in-flight slots, so the bounded
    # tenant overflows deterministically at its max_inflight.
    for _ in range(noisy_attempts):
        try:
            futures.append(
                loop.enqueue(
                    NextStepRequest(
                        history=history, objective=objective, user_index=user,
                        tenant="noisy",
                    ).to_envelope()
                )
            )
        except QueueFullError:
            noisy_rejects += 1
    for _ in range(noisy_attempts):
        futures.append(
            loop.enqueue(
                RankRequest(history=history, k=5, user_index=user, tenant="neighbour")
                .to_envelope()
            )
        )
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
    evaluator = IRSEvaluator(irn)
    ab_instances = instances[: min(len(instances), 6)]

    def ab_registry() -> TenantRegistry:
        # A fresh treatment planner per run: plan-cache affinity carried
        # over from a previous run's sessions would change which steps get
        # replanned — the determinism contract is per *fleet lifetime*,
        # exactly what one CLI invocation or one registry build sees.
        reg = TenantRegistry()
        reg.add("control", markov)
        reg.add(
            "treatment",
            BeamSearchPlanner(
                irn,
                beam_width=config["beam_width"],
                branch_factor=config["branch_factor"],
                max_length=max_length,
            ).fit(split),
        )
        return reg

    def strip_latency(summary: dict) -> dict:
        cleaned = {}
        for arm in ("control", "treatment"):
            cleaned[arm] = {
                key: value
                for key, value in summary[arm].items()
                if key not in ("p50_ms", "p95_ms", "slo_met")
            }
        cleaned["uplift"] = summary["uplift"]
        return cleaned

    summaries = []
    ab_started = time.perf_counter()
    for _ in range(2):
        with ServingLoop(None, tenants=ab_registry()) as ab_loop:
            report = run_ab(
                ab_loop,
                TenantArm("control"),
                TenantArm("treatment"),
                ab_instances,
                evaluator,
                max_steps=2 * max_length,
                seed=0,
            )
        summaries.append(strip_latency(report.summary()))
    ab_seconds = time.perf_counter() - ab_started

    return {
        "max_path_length": max_length,
        "num_contexts": len(contexts),
        "tenants": ["irs", "zoo", "kg"],
        "per_kind": per_kind,
        "isolation": isolation,
        "ab": {
            "sessions_per_cohort": len(ab_instances),
            "runs": 2,
            "seconds": round(ab_seconds, 3),
            "deterministic": summaries[0] == summaries[1],
            "uplift": summaries[0]["uplift"],
        },
    }


#: Section registry: name -> builder(irn, split, instances, config, **knobs).
#: ``run_benchmarks(sections=...)`` and ``repro-irs bench --sections`` filter
#: against these names.
BENCH_SECTIONS = (
    "tensor_ops",
    "beam_planning",
    "greedy_planning",
    "nextitem_evaluation",
    "irs_stepwise_replanning",
    "incremental_decoding",
    "sharded_evaluation",
    "async_serving",
    "replicated_serving",
    "distributed_serving",
    "observability",
    "two_stage_retrieval",
    "multi_tenant",
)


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
    shard_backend: "str | None" = None,
    vocab_shards: "int | None" = None,
    sections: "Sequence[str] | None" = None,
) -> dict:
    """Train a small IRN on the synthetic corpus and time scalar vs batched.

    Returns the report dict; when ``output`` is given it is also written there
    as JSON (the repo-root ``BENCH_path_planning.json`` artefact).
    ``shard_backend`` / ``vocab_shards`` configure the ``sharded_evaluation``
    and ``async_serving`` sections (defaults: the ``REPRO_*`` environment,
    then thread / 1).  ``sections`` restricts the run to a subset of
    :data:`BENCH_SECTIONS` (the corpus/model setup always runs; unselected
    sections are simply absent from the report).
    """
    selected = resolve_sections(sections)
    config = bench_config(profile)
    # The retrieval section builds its own per-tier corpora/models; when it
    # is the only selection (CI's scale-smoke leg), skip the shared setup
    # entirely instead of training a model nothing will use.
    needs_shared = any(name != "two_stage_retrieval" for name in selected)
    split = irn = instances = None
    if needs_shared:
        split = build_bench_split(config)
        irn = IRN(**config["irn"]).fit(split)
        instances = sample_objectives(
            split,
            min_objective_interactions=2,
            seed=0,
            max_instances=config["num_instances"],
        )

    machine = machine_info()
    report = {
        "benchmark": "path_planning",
        "profile": config["profile"],
        "dataset": config["synthetic"]["name"],
        "vocab_size": split.corpus.vocab.size if split is not None else None,
        "num_users": split.corpus.num_users if split is not None else None,
        "machine": machine,
        "sections": list(selected),
    }
    builders = {
        "tensor_ops": lambda: _bench_tensor_ops(irn, split, instances, config),
        "beam_planning": lambda: _bench_beam(irn, split, instances, config),
        "greedy_planning": lambda: _bench_greedy(irn, instances, config),
        "nextitem_evaluation": lambda: _bench_nextitem(irn, split, config),
        "irs_stepwise_replanning": lambda: _bench_stepwise(irn, split, instances, config),
        "incremental_decoding": lambda: _bench_incremental(split, instances, config),
        "sharded_evaluation": lambda: _bench_sharded(
            irn, split, instances, config,
            shard_backend=shard_backend, vocab_shards=vocab_shards,
        ),
        "async_serving": lambda: _bench_async_serving(
            irn, split, instances, config,
            shard_backend=shard_backend, vocab_shards=vocab_shards,
        ),
        "replicated_serving": lambda: _bench_replicated_serving(
            irn, split, instances, config,
            shard_backend=shard_backend, vocab_shards=vocab_shards,
        ),
        "distributed_serving": lambda: _bench_distributed_serving(
            irn, split, instances, config,
            shard_backend=shard_backend, vocab_shards=vocab_shards,
        ),
        "observability": lambda: _bench_observability(
            irn, split, instances, config,
            shard_backend=shard_backend, vocab_shards=vocab_shards,
        ),
        "two_stage_retrieval": lambda: _bench_two_stage_retrieval(config),
        "multi_tenant": lambda: _bench_multi_tenant(irn, split, instances, config),
    }
    for name in selected:
        report[name] = builders[name]()
        # Peak RSS is monotone per process, so the per-section reading is
        # an upper bound reached BY the end of that section — the reader
        # can attribute a jump to the section that introduced it.
        report[name]["peak_rss_kb"] = peak_rss_kb()
    # Every section records the CPU count and the execution backend it ran
    # on, so the perf trajectory stays comparable across machines: the
    # non-sharded sections run in-process serial NumPy.
    for name in selected:
        report[name].setdefault("backend", "serial")
        report[name]["cpu_count"] = machine["cpu_count"]
    # Refresh the root machine block's peak after the sections ran.
    machine["peak_rss_kb"] = peak_rss_kb()
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=False)
            handle.write("\n")
        # Sidecar registry dump: the full metrics state the bench run left
        # behind (cache counters, serving latency histograms, KV allocation
        # bytes, ...), kept out of the main report so the committed bench
        # stays diffable while CI still uploads the complete snapshot.
        from repro.obs.export import metrics_to_json

        metrics_path = f"{os.path.splitext(output)[0]}.metrics.json"
        with open(metrics_path, "w", encoding="utf-8") as handle:
            handle.write(metrics_to_json(indent=2))
            handle.write("\n")
    return report


def main(argv: Sequence[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile",
        default="default",
        help=f"bench profile ({' | '.join(BENCH_PROFILES)})",
    )
    parser.add_argument("--output", default="BENCH_path_planning.json")
    parser.add_argument(
        "--shard-backend",
        default=None,
        help="backend of the sharded_evaluation section (serial | thread | process)",
    )
    parser.add_argument(
        "--vocab-shards",
        type=int,
        default=None,
        help="column shards of the item axis for top-k in the sharded section",
    )
    parser.add_argument(
        "--sections",
        default=None,
        help=(
            "comma-separated subset of bench sections to run "
            f"(default: all of {', '.join(BENCH_SECTIONS)})"
        ),
    )
    parser.add_argument(
        "--cprofile",
        action="store_true",
        help=(
            "run the selected sections under cProfile and write a pstats dump "
            "next to the JSON output (<output>.pstats), so perf work starts "
            "from evidence"
        ),
    )
    args = parser.parse_args(argv)
    sections = args.sections.split(",") if args.sections else None
    resolve_sections(sections)  # fail on typos BEFORE training the model
    resolve_profile(args.profile)  # same eager validation for the profile
    # Fail on an unwritable output path BEFORE spending minutes benchmarking.
    with open(args.output, "a", encoding="utf-8"):
        pass
    def run() -> dict:
        return run_benchmarks(
            profile=args.profile,
            output=args.output,
            shard_backend=args.shard_backend,
            vocab_shards=args.vocab_shards,
            sections=sections,
        )
    if args.cprofile:
        report, stats_path = profile_benchmarks(run, args.output)
        print(f"cProfile stats written to {stats_path}", file=sys.stderr)
    else:
        report = run()
    print(json.dumps(report, indent=2))
    print("\n" + format_summary(report))


def profile_benchmarks(run, output: str) -> tuple[dict, str]:
    """Run ``run()`` under :mod:`cProfile`, dumping pstats next to ``output``.

    Returns ``(report, stats_path)``.  The dump loads with
    ``pstats.Stats(stats_path)`` for sorting/printing; note the profiler
    inflates the wall-clock numbers inside the report itself, so profiled
    runs are for finding hotspots, not for refreshing the committed bench.
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
    """Human-readable highlights (shared with the ``repro-irs bench`` CLI).

    Only the sections present in the report are summarised, so subset runs
    (``--sections``) format cleanly.
    """
    lines = []
    if "tensor_ops" in report:
        tensor = report["tensor_ops"]
        attention = tensor["attention"]
        allocation = tensor["decode_allocation"]
        lines.append(
            f"tensor ops: fused attention {attention['fused_ns'] / 1e3:.1f}us vs "
            f"graph {attention['unfused_ns'] / 1e3:.1f}us "
            f"({attention['fused_speedup']}x, parity: {attention['fused_parity']}); "
            f"K/V decode step copies {allocation['arena']['copied_bytes_per_step']} B vs "
            f"{allocation['arena']['copy_reduction']}x more under concatenate "
            f"(no_prefix_copy: {allocation['no_prefix_copy']})"
        )
    if "beam_planning" in report:
        beam = report["beam_planning"]
        lines.append(
            f"beam planning: {beam['scalar']['forwards']} -> {beam['batched']['forwards']} forwards "
            f"({beam['forward_reduction']}x fewer), "
            f"{beam['scalar']['paths_per_sec']} -> {beam['batched']['paths_per_sec']} paths/sec"
        )
    if "greedy_planning" in report:
        greedy = report["greedy_planning"]
        lines.append(
            f"greedy planning: {greedy['scalar']['forwards']} -> "
            f"{greedy['batched']['forwards']} forwards "
            f"({greedy['forward_reduction']}x fewer), plans identical: {greedy['plans_equal']}"
        )
    if "nextitem_evaluation" in report:
        nextitem = report["nextitem_evaluation"]
        lines.append(
            f"next-item evaluation: {nextitem['scalar']['forwards']} -> "
            f"{nextitem['batched']['forwards']} forwards "
            f"({nextitem['forward_reduction']}x fewer), ranks identical: {nextitem['ranks_equal']}"
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
    if "sharded_evaluation" in report:
        sharded = report["sharded_evaluation"]
        best = max(sharded["workers"], key=lambda row: row["speedup_vs_serial"])
        lines.append(
            f"sharded evaluation ({sharded['backend']}, {sharded['cpu_count']} cpu): "
            f"{sharded['serial']['paths_per_sec']} paths/sec serial, "
            f"{best['paths_per_sec']} paths/sec at {best['num_workers']} workers "
            f"({best['speedup_vs_serial']}x, efficiency {best['scaling_efficiency']}), "
            f"plans identical: {all(row['plans_equal_serial'] for row in sharded['workers'])}"
        )
    if "async_serving" in report:
        serving = report["async_serving"]
        fastest = max(
            serving["workers"], key=lambda row: row["open_loop"]["throughput_rps"]
        )
        latency = fastest["open_loop"]["latency_ms"]
        lines.append(
            f"async serving ({serving['backend']}, {serving['cpu_count']} cpu, "
            f"{serving['arrival_rate']} req/s offered): "
            f"{fastest['open_loop']['throughput_rps']} req/s served at "
            f"{fastest['num_workers']} workers, latency p50 {latency['p50']} / "
            f"p95 {latency['p95']} / p99 {latency['p99']} ms, "
            f"responses identical: "
            f"{all(row['responses_match_sequential'] for row in serving['workers'])}"
        )
    if "replicated_serving" in report:
        replicated = report["replicated_serving"]
        refit = replicated["hot_refit"].get("refit", {})
        lines.append(
            f"replicated serving ({replicated['num_replicas']} replicas, "
            f"{replicated['cpu_count']} cpu): shared-generation parity "
            f"{replicated['parity']['responses_match_single_replica']}; hot refit "
            f"gen {refit.get('generation_from')} -> {refit.get('generation_to')} "
            f"flipped in {round(1e6 * refit.get('flip_seconds', 0.0), 1)} us, "
            f"no pause: {replicated['hot_refit']['no_pause']} "
            f"({replicated['hot_refit']['errored_requests']} errored, "
            f"{replicated['hot_refit']['rejected_requests']} rejected), "
            f"generations served {replicated['hot_refit']['generations_served']}"
        )
    if "distributed_serving" in report:
        distributed = report["distributed_serving"]
        codec = distributed["codec"]
        if distributed.get("workers"):
            fastest = max(
                distributed["workers"], key=lambda row: row["remote"]["paths_per_sec"]
            )
            sojourn = fastest["remote"]["sojourn_ms"]
            chaos = distributed["chaos"]
            lines.append(
                f"distributed serving (process transport, {distributed['cpu_count']} cpu): "
                f"{fastest['remote']['paths_per_sec']} paths/sec at "
                f"{fastest['num_workers']} workers "
                f"({fastest['remote_vs_in_process']}x in-process), sojourn p50 "
                f"{sojourn['p50']} / p95 {sojourn['p95']} / p99 {sojourn['p99']} ms, "
                f"codec {codec['request_encode_ns']}+{codec['request_decode_ns']} ns/req, "
                f"parity: {all(row['responses_match_sequential'] for row in distributed['workers'])}, "
                f"chaos zero-drop: {chaos['zero_dropped']} "
                f"(detected in {round(1e3 * chaos['detect_seconds'], 1)} ms, budget "
                f"{round(1e3 * chaos['budget_seconds'], 1)} ms)"
            )
        else:  # pragma: no cover - non-fork platforms
            lines.append(
                f"distributed serving: fork unavailable, codec only "
                f"({codec['request_encode_ns']}+{codec['request_decode_ns']} ns/req)"
            )
    if "two_stage_retrieval" in report:
        retrieval = report["two_stage_retrieval"]
        top = retrieval["tiers"][-1]
        best_name, best = max(
            top["generators"].items(), key=lambda item: item[1]["speedup_vs_exact"]
        )
        lines.append(
            f"two-stage retrieval (V={top['vocab_size']}): exact "
            f"{top['exact']['paths_per_sec']} paths/sec (step p95 "
            f"{top['exact']['step_p95_ms']} ms) -> {best['paths_per_sec']} paths/sec "
            f"under '{best_name}' ({best['speedup_vs_exact']}x, step p95 "
            f"{best['step_p95_ms']} ms), overlap@{retrieval['overlap_k']} "
            f"{best['overlap_at_k']}, mean regret {best['mean_plan_regret']}, "
            f"full-vocab parity: {retrieval['full_vocab_parity']}"
        )
    if "observability" in report:
        obs = report["observability"]
        lines.append(
            f"observability: disabled p95 {obs['disabled']['p95_ms']} ms vs enabled "
            f"{obs['enabled']['p95_ms']} ms (delta {obs['overhead']['p95_delta_ms']} ms, "
            f"budget {obs['overhead']['budget_ms']} ms, within: "
            f"{obs['overhead']['within_budget']}); disabled no-op: {obs['disabled_noop']}, "
            f"deterministic trace IDs: {obs['deterministic_trace_ids']}, "
            f"parity with tracing (async/replicated): "
            f"{obs['async_parity_with_tracing']}/{obs['replicated_parity_with_tracing']}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    main()
