"""Fixtures and request scripts of the four session-serving workloads.

Every constant the benchmark depends on is written down here (copied from
the ``default`` profile of ``repro.perf.bench``, never imported from it:
ROADMAP item 1 splits that module).  A workload is a *serving surface*
plus a *script*: which sessions run in a closed unit, which arrive in a
paced unit, and which of them are **fresh** (step 0 must plan) or
**resident** (the surface already holds the plan).

The context population is fixed by :data:`FIXTURE_SEED`; the run's
``--seed`` only decides the order contexts are used in and when paced
sessions arrive.  Work per unit is therefore the same for every seed (what
makes two runs comparable) while batch composition and interleaving are
not (what makes a seed an input).
"""

from __future__ import annotations

import ctypes
import gc
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.data.preprocessing import build_corpus
from repro.data.splitting import split_corpus
from repro.data.streaming import StreamingSyntheticConfig, build_streaming_store
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.evaluation.protocol import sample_objectives
from repro.retrieval import make_generator
from repro.serve import ServingLoop
from repro.serve.api import PlanRequest
from repro.tenant.adapters import KindAdapter

FIXTURE_SEED = 0

SMALL_SYNTHETIC = dict(
    name="e2e-small", num_users=120, num_items=240, num_genres=8, seed=FIXTURE_SEED
)  # 216 items survive min_interactions=3
SMALL_SPLIT = dict(l_min=6, l_max=14, validation_fraction=0.1, seed=FIXTURE_SEED)
SMALL_IRN = dict(
    embedding_dim=32, user_dim=8, num_heads=2, num_layers=2, epochs=2,
    batch_size=64, max_sequence_length=50, seed=FIXTURE_SEED,
)
CATALOG_STREAM = dict(
    num_items=20_000, num_users=128, min_events=12, max_events=24, seed=FIXTURE_SEED
)
CATALOG_SPLIT = dict(l_min=6, l_max=12, validation_fraction=0.0, seed=FIXTURE_SEED)
CATALOG_IRN = dict(
    embedding_dim=16, user_dim=4, num_heads=2, num_layers=1, epochs=1,
    batch_size=8, max_sequence_length=16, seed=FIXTURE_SEED,
)
CATALOG_CANDIDATES = 128
PLANNER = dict(beam_width=4, branch_factor=4, max_length=12)
#: a history is cut to between half and all of the workload's longest
#: history, walking up that ladder one item at a time: a plan's cost grows
#: with its history, and workloads whose fresh contexts are new every round
#: need every unit to carry the same mix of lengths, i.e. the same work
HISTORY_CUT = (0.5, 1.0)
THINK_TIME_S = 0.030
PACED_SECONDS = 1.0  # arrival window of a paced unit
FLEET_TENANTS = ("irs-a", "irs-b")
#: Workers beat every 50 ms (the default) but are only *suspected* after
#: 5 s of silence, not the default 250 ms.  This host freezes a process for
#: a few hundred ms now and then; with one worker per tenant there is no
#: survivor to re-dispatch to, so a default-budget suspicion turns one slow
#: unit into refused ops and a failed run.  5 s is the driver's op timeout:
#: a worker silent for longer fails its ops there anyway.
FLEET_HEARTBEAT_MISSES = 100

Context = tuple  # (history: tuple[int, ...], objective: int, user_index: int)


@dataclass(frozen=True)
class Spec:
    """Frozen sizing of one workload (the numbers later issues refer to)."""

    name: str
    why: str
    window: int  # W: sessions kept in flight in a closed unit
    rate: float  # lambda: paced session arrivals per second
    closed_sessions: int  # sessions per closed unit
    residents: int = 0  # resident contexts (per tenant on the fleet)
    closed_fresh_every: int = 1  # 1 = all fresh, 3 = one fresh in three, 0 = none
    paced_fresh_every: int = 1
    identical: bool = False  # caches reset before each unit, same script every round
    tenants: tuple = (None,)
    stream_share: float = 0.0  # weight of the calibration kernel's stream part (driver.calibrate)


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            "loop_fresh",
            "model-bound: every session plans; beam + nn + kv cache do the work, serve almost none",
            window=16, rate=12.0, closed_sessions=16, identical=True,
        ),
        Spec(
            "loop_resident",
            "serve-bound: closed units replay resident plans (no model work); paced mixes 1 fresh in 3",
            window=256, rate=36.0, closed_sessions=384,
            residents=32, closed_fresh_every=0, paced_fresh_every=3,
        ),
        Spec(
            "fleet_mixed",
            "transport-bound: 2 forked workers, one tenant each; wire + dispatch + registry on every op",
            window=32, rate=24.0, closed_sessions=48,
            residents=12, closed_fresh_every=3, paced_fresh_every=2, tenants=FLEET_TENANTS,
        ),
        Spec(
            "catalog_pruned",
            "retrieval-bound: 20k-item catalog planned over a 128-candidate shortlist",
            window=16, rate=10.0, closed_sessions=16, identical=True,
            # log-softmax, top-k and row copies over (64 x 20 000) score
            # matrices are ~55 % of a pruned plan on a quiet host and more
            # once neighbours take memory bandwidth; 0.7 kept ten fresh
            # processes within 7 % while the host slid into such a state
            # (21 % with the interpreter part alone; README, "Calibrated host time")
            stream_share=0.7,
        ),
    )
}


@dataclass(frozen=True)
class SessionScript:
    """One scripted session: its context, tenant and the class of its step 0."""

    context: Context
    tenant: "str | None"
    fresh: bool


class ContextPool:
    """An endless, duplicate-free stream of planning contexts.

    Contexts are ``sample_objectives(split, seed=0)`` instances with the
    history cut to the next rung of the :data:`HISTORY_CUT` ladder; once
    every instance was used the objective is re-drawn too, so the stream
    never repeats a context.
    """

    def __init__(self, split, min_objective_interactions: int, longest_history: int) -> None:
        self._cuts = range(int(HISTORY_CUT[0] * longest_history), longest_history + 1)
        self._instances = sample_objectives(
            split, min_objective_interactions=min_objective_interactions, seed=FIXTURE_SEED
        )
        self._objectives = sorted({inst.objective for inst in self._instances})
        self._rng = np.random.default_rng(FIXTURE_SEED)
        self._seen: "set[Context]" = set()
        self._cursor = 0

    def take(self, count: int) -> "list[Context]":
        taken: "list[Context]" = []
        while len(taken) < count:
            inst = self._instances[self._cursor % len(self._instances)]
            first_pass = self._cursor < len(self._instances)
            self._cursor += 1
            cut = self._cuts[len(self._seen) % len(self._cuts)]
            history = [int(item) for item in inst.history]
            objective = inst.objective
            if not first_pass:
                objective = int(self._rng.choice(self._objectives))
            context = (tuple(history[:cut]), int(objective), inst.user_index)
            if len(history) < cut or objective in history or context in self._seen:
                continue
            self._seen.add(context)
            taken.append(context)
        return taken


# --------------------------------------------------------------------- #
# Counters: the exact, program-side counts every unit is bracketed with
# --------------------------------------------------------------------- #
COUNTER_FIELDS = (
    "replans", "served_from_plan", "step_hits", "step_misses", "plan_hits",
    "plan_misses", "forwards", "tokens_encoded", "tokens_fallback", "kv_copied_bytes",
    "retrieval_requests", "retrieval_fallbacks", "retrieval_candidates",
)


def planner_counters(planner) -> "list[int]":
    """:data:`COUNTER_FIELDS` of one planner, from its public counters."""
    from repro.cache.kv import allocation_stats

    info = planner.cache_info()
    decode = planner.backbone.decode_stats.snapshot()
    retrieval = info.get("retrieval", {})
    return [
        info["serving"]["replans"], info["serving"]["served_from_plan"],
        info["step_cache"]["hits"], info["step_cache"]["misses"],
        info["plan_cache"]["hits"], info["plan_cache"]["misses"],
        decode["forwards"], decode["tokens_encoded"], decode["tokens_fallback"],
        int(allocation_stats()["copied_bytes"]),
        retrieval.get("requests", 0), retrieval.get("fallbacks", 0),
        retrieval.get("candidate_items", 0),
    ]


class CounterProbe(KindAdapter):
    """A tenant whose "model" answers a plan request with a planner's counters.

    Forked workers keep their planner counters to themselves (crossing
    the boundary is ROADMAP 5a); registering this adapter beside the
    serving tenants lets the benchmark read them through the same typed
    ``serve(request)`` surface, as an integer path.
    """

    kinds = ("plan_paths",)

    def __init__(self, planner) -> None:
        self._planner = planner

    def model(self):
        return self._planner

    def _answer(self, kind, history, objective, path_so_far, user_index, max_length):
        return planner_counters(self._planner)


# --------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------- #
@dataclass
class Fixture:
    """One set-up serving surface plus everything the driver needs around it."""

    spec: Spec
    surface: object
    reference: BeamSearchPlanner  # a fresh direct planner over the same model
    split: object
    pool: ContextPool
    stages: dict  # timed set-up stages, seconds
    planners: "list[BeamSearchPlanner]" = field(default_factory=list)  # in-process only
    tmp_dir: "str | None" = None

    @property
    def max_length(self) -> int:
        return PLANNER["max_length"]

    def worker_pids(self) -> "list[int]":
        if self.spec.name != "fleet_mixed":
            return []
        return [replica["pid"] for replica in self.surface.stats()["replicas"]]

    def reset(self) -> None:
        """Forget every plan, so the next unit's sessions are fresh again."""
        for planner in self.planners:
            planner.invalidate_caches()

    def counters(self) -> "dict[str, int]":
        """Exact counts summed over the serving planners (probe tenants on the fleet)."""
        if self.planners:
            rows = [planner_counters(planner) for planner in self.planners]
        else:
            futures = [
                self.surface.serve(
                    PlanRequest(history=(1,), objective=1, tenant=f"probe-{tenant}")
                )
                for tenant in FLEET_TENANTS
            ]
            rows = [future.result(timeout=10).answer for future in futures]
        return {name: sum(row[i] for row in rows) for i, name in enumerate(COUNTER_FIELDS)}

    def close(self) -> None:
        self.surface.close()
        if self.tmp_dir is not None:
            shutil.rmtree(self.tmp_dir, ignore_errors=True)
            self.tmp_dir = None


def trim_heap() -> None:
    """Collect garbage and hand freed memory back to the OS.

    How much freed-but-still-resident heap this process holds when it forks
    decides how many resident pages each worker inherits (155 to 185 MB,
    run to run).  Trimming before every set-up, and again between the fit
    and the fork, makes the workers start from the same heap every time.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # not glibc: nothing to trim
        pass


def _timed(stages: dict, name: str, fn):
    started = time.perf_counter()
    result = fn()
    stages[name] = stages.get(name, 0.0) + time.perf_counter() - started
    return result


def _small_model(stages: dict):
    def corpus():
        dataset = generate_synthetic_dataset(SyntheticConfig(**SMALL_SYNTHETIC))
        return split_corpus(build_corpus(dataset, min_interactions=3), **SMALL_SPLIT)

    split = _timed(stages, "data.corpus_build_s", corpus)
    irn = _timed(stages, "data.model_fit_s", lambda: IRN(**SMALL_IRN).fit(split))
    return split, irn


def build(name: str, out_dir: str) -> Fixture:
    """Set up workload ``name``: corpus, model, generator, started surface.

    Everything timed here is ``setup_s``; the caller times the whole call.
    The reference planner and the context pool are built here too but are
    cheap (no fit) — reference *paths* are computed, and timed, elsewhere.
    """
    spec = SPECS[name]
    stages: dict = {}
    tmp_dir = None
    if name == "catalog_pruned":
        tmp_dir = tempfile.mkdtemp(prefix="store-", dir=out_dir)

        def corpus():
            store = build_streaming_store(
                StreamingSyntheticConfig(**CATALOG_STREAM),
                os.path.join(tmp_dir, "store"),
                name="e2e-catalog",
            )
            return split_corpus(store.as_corpus(), **CATALOG_SPLIT)

        split = _timed(stages, "data.corpus_build_s", corpus)
        irn = _timed(stages, "data.model_fit_s", lambda: IRN(**CATALOG_IRN).fit(split))
        generator = make_generator("cooccurrence", num_candidates=CATALOG_CANDIDATES)
        _timed(stages, "retrieval.fit_s", lambda: generator.fit(split.corpus))
        pool = ContextPool(split, 1, longest_history=CATALOG_IRN["max_sequence_length"])
    else:
        split, irn = _small_model(stages)
        generator = None
        pool = ContextPool(split, 5, longest_history=32)

    def planner() -> BeamSearchPlanner:
        return BeamSearchPlanner(irn, candidate_generator=generator, **PLANNER).fit(split)

    reference = planner()
    if name == "fleet_mixed":
        from repro.distributed import RemoteReplicaSet
        from repro.tenant import TenantRegistry

        def tenant_factory():
            registry = TenantRegistry()
            for tenant in FLEET_TENANTS:
                serving = planner()
                registry.add(tenant, serving)
                registry.add(f"probe-{tenant}", CounterProbe(serving))
            return registry

        placement = {}
        for slot, tenant in enumerate(FLEET_TENANTS):
            placement[tenant] = [slot]
            placement[f"probe-{tenant}"] = [slot]
        trim_heap()
        surface = _timed(
            stages,
            "distributed.spawn_s",
            lambda: RemoteReplicaSet(
                planner,
                num_replicas=len(FLEET_TENANTS),
                tenant_factory=tenant_factory,
                tenant_placement=placement,
                heartbeat_misses=FLEET_HEARTBEAT_MISSES,
            ).start(),
        )
        planners = []
    else:
        planners = [planner()]
        surface = ServingLoop(planners[0]).start()
    return Fixture(spec, surface, reference, split, pool, stages, planners, tmp_dir)


# --------------------------------------------------------------------- #
# Scripts
# --------------------------------------------------------------------- #
class Scripts:
    """The per-round session lists of one run (seeded by ``--seed``).

    ``scale`` shrinks every unit (the ``--smoke`` profile uses 0.25).
    Resident contexts are drawn once; fresh contexts come from the pool
    and are new in every round unless the workload is ``identical``, in
    which case round 1's sessions are replayed after a cache reset.
    """

    def __init__(self, fixture: Fixture, seed: int, scale: float = 1.0) -> None:
        self.spec = spec = fixture.spec
        self._pool = fixture.pool
        self._rng = np.random.default_rng(seed)
        self.closed_count = max(int(round(spec.closed_sessions * scale)), 4)
        self.window = min(max(int(round(spec.window * scale)), 2), self.closed_count)
        self.paced_seconds = PACED_SECONDS * max(scale, 0.5)
        self.paced_count = max(int(round(spec.rate * self.paced_seconds)), 3)
        self.residents = {
            tenant: self._pool.take(spec.residents) for tenant in spec.tenants
        }
        self._resident_cursor = {tenant: 0 for tenant in spec.tenants}
        self._frozen: "dict[str, list[SessionScript]]" = {}

    def resident_sessions(self) -> "list[SessionScript]":
        """One fresh session per resident context (the warm-up's priming pass)."""
        return [
            SessionScript(context, tenant, fresh=True)
            for tenant, contexts in self.residents.items()
            for context in contexts
        ]

    def _sessions(self, count: int, fresh_every: int) -> "list[SessionScript]":
        sessions = []
        for index in range(count):
            tenant = self.spec.tenants[index % len(self.spec.tenants)]
            slot = index // len(self.spec.tenants)
            if fresh_every and slot % fresh_every == 0:
                sessions.append(SessionScript(self._pool.take(1)[0], tenant, fresh=True))
            else:
                # Round-robin through the residents: the distance between two
                # uses of one context is then bounded by construction, which
                # is what keeps it inside the 64-entry step cache.
                contexts = self.residents[tenant]
                cursor = self._resident_cursor[tenant]
                self._resident_cursor[tenant] = cursor + 1
                sessions.append(
                    SessionScript(contexts[cursor % len(contexts)], tenant, fresh=False)
                )
        return sessions

    def _round_sessions(self, kind: str) -> "list[SessionScript]":
        """This round's sessions of one kind, in a freshly drawn order.

        An ``identical`` workload draws its sessions once and replays them
        every round; their order (and arrival instants) are still re-drawn,
        so that no run inherits one lucky or unlucky pattern.
        """
        sessions = self._frozen.get(kind)
        if sessions is None:
            if kind == "closed":
                sessions = self._sessions(self.closed_count, self.spec.closed_fresh_every)
            else:
                sessions = self._sessions(self.paced_count, self.spec.paced_fresh_every)
            if self.spec.identical:
                self._frozen[kind] = sessions
        return [sessions[i] for i in self._rng.permutation(len(sessions))]

    def closed_sessions(self) -> "list[SessionScript]":
        return self._round_sessions("closed")

    def paced_arrivals(self) -> "list[tuple[float, SessionScript]]":
        """``[(arrival offset in seconds, session), ...]`` of one paced unit."""
        sessions = self._round_sessions("paced")
        # A Poisson process conditioned on its count: the arrival instants
        # are sorted uniforms, so every unit offers exactly rate x seconds
        # sessions and only their spacing is random.
        offsets = np.sort(self._rng.uniform(0.0, self.paced_seconds, len(sessions)))
        return [(float(t), s) for t, s in zip(offsets, sessions)]
