"""The slot-array beam plans exactly what the object beam before it planned.

The tie order is the contract (``repro.core.beam``, "Batched expansion"):
children of a row in (value desc, item asc) order, an instance's children
ranked by a stable sort over (parent order, child rank), the first maximal
complete hypothesis in retirement order, else the first maximal hypothesis
of the final beam.  :mod:`tests.core.reference_beam` keeps that object beam
verbatim; here both plan the same contexts and must return equal plans:

* on tie-heavy stub backbones — scores from at most four distinct values,
  objectives reached at random depths, instances that freeze once every
  candidate is masked — over the exact path, shortlist tables, and batches
  that mix both;
* on real IRNs in all three decoding-session regimes (incremental,
  shared within a depth, per-row window), with roots whose rows all die
  mid-plan, exactly and pruned — with the object beam's sessions on, and
  switched off so that it re-scores every hypothesis' window
  (``score_with_objective_batch``, with the ``(rows, K)`` table when
  pruned) while the planner plans through (shortlist-space) sessions.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import irn as irn_module
from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.core.pim import MaskType
from repro.data.padding import PAD_INDEX
from repro.evaluation.protocol import sample_objectives
from tests.core.reference_beam import ReferenceBeamPlanner
from tests.stub_sessions import StubSessions


def _rng(*key) -> np.random.Generator:
    """A generator seeded by integers only (stable across interpreter runs)."""
    return np.random.default_rng([int(part) % 2**32 for part in key])


class _TieHeavyBackbone(StubSessions):
    """Scores drawn from a few levels, a pure function of (sequence, objective).

    The padding column is ``-inf``, as an IRN's is: the object beam never
    masked it itself.
    """

    def __init__(self, vocab: int, levels: "list[float]", seed: int) -> None:
        self.vocab = vocab
        self.levels = np.asarray(levels, dtype=np.float64)
        self.seed = seed
        self.corpus = SimpleNamespace(vocab=SimpleNamespace(size=vocab), num_users=1)

    def score_row(self, sequence, objective):
        rng = _rng(self.seed, objective, len(sequence), *sequence)
        row = rng.choice(self.levels, size=self.vocab)
        row[PAD_INDEX] = -np.inf
        return row

    def score_rows(self, sequences, objectives, user_indices):
        return np.stack([self.score_row(s, o) for s, o in zip(sequences, objectives)])


class _Shortlists:
    """A candidate generator: a seeded subset holding the objective, or ``None``."""

    name = "seeded-shortlists"

    def __init__(self, vocab: int, seed: int, mode: str) -> None:
        self.vocab, self.seed, self.mode = vocab, seed, mode

    def candidates(self, history, objective, user_index=None):
        if self.mode == "mixed" and objective % 2:
            return None  # this context plans on the exact path
        rng = _rng(self.seed, objective, *history)
        size = int(rng.integers(1, self.vocab - 1))
        picked = rng.choice(np.arange(1, self.vocab), size=size, replace=False)
        return np.union1d(picked, [objective])

    def candidates_batch(self, histories, objectives, user_indices):
        return [self.candidates(h, o) for h, o in zip(histories, objectives)]


@st.composite
def tie_heavy_plans(draw):
    vocab = draw(st.integers(min_value=4, max_value=12))
    levels = draw(
        st.lists(
            st.sampled_from([-np.inf, -1.5, 0.0, 0.25, 2.0]), min_size=1, max_size=4, unique=True
        )
    )
    items = st.integers(min_value=1, max_value=vocab - 1)
    contexts = draw(
        st.lists(st.tuples(st.lists(items, max_size=6), items), min_size=1, max_size=5)
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    space = draw(st.sampled_from(["exact", "shortlist", "mixed"]))
    knobs = dict(
        beam_width=draw(st.integers(min_value=1, max_value=5)),
        branch_factor=draw(st.integers(min_value=1, max_value=5)),
        max_length=draw(st.integers(min_value=1, max_value=8)),
        objective_bonus=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        plan_cache_size=0,
    )
    backbone = _TieHeavyBackbone(vocab, levels, seed)
    if space != "exact":
        knobs["candidate_generator"] = _Shortlists(vocab, seed, space)
    return backbone, contexts, knobs


def _planners(backbone, **knobs):
    planners = BeamSearchPlanner(backbone, **knobs), ReferenceBeamPlanner(backbone, **knobs)
    for planner in planners:
        planner.corpus = backbone.corpus  # fitted: a stub has nothing to fit
    return planners


class TestTieOrderOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=tie_heavy_plans())
    def test_tie_heavy_stubs_plan_like_the_object_beam(self, case):
        backbone, contexts, knobs = case
        array, reference = _planners(backbone, **knobs)
        histories = [list(history) for history, _ in contexts]
        objectives = [objective for _, objective in contexts]
        assert array.plan_paths_batch(histories, objectives) == reference.plan_paths_batch(
            histories, objectives
        )

    def test_instances_that_run_out_of_candidates_stop(self):
        """Three items and a six-step horizon: every instance runs out of
        unseen candidates within three steps, one after the other, and no
        bonus makes reaching the objective worth stopping for."""
        backbone = _TieHeavyBackbone(vocab=4, levels=[0.0, 1.0], seed=3)
        knobs = dict(beam_width=2, branch_factor=2, max_length=6, objective_bonus=0.0)
        array, reference = _planners(backbone, **knobs)
        histories, objectives = [[1, 2], [1], []], [3, 3, 3]
        plans = array.plan_paths_batch(histories, objectives)
        assert plans == reference.plan_paths_batch(histories, objectives)
        assert all(len(path) <= 3 for path in plans)


WINDOW = 8  # the per-row window: contexts of 5 to 12 items outgrow it mid-plan

REGIMES = {
    "incremental": dict(num_layers=1, max_sequence_length=50),
    "shared": dict(num_layers=2, max_sequence_length=50),
    "window": dict(num_layers=2, max_sequence_length=WINDOW),
}


@pytest.fixture(scope="module")
def regime_models(tiny_split):
    cache: dict = {}

    def get(regime: str) -> IRN:
        if regime not in cache:
            cache[regime] = IRN(
                embedding_dim=8,
                user_dim=4,
                num_heads=2,
                mask_type=MaskType.PERSONALIZED,
                history_weight=0.3,
                epochs=1,
                batch_size=64,
                seed=0,
                **REGIMES[regime],
            ).fit(tiny_split)
        return cache[regime]

    return get


@pytest.mark.parametrize("beam_width", [1, 3])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_real_irn_plans_like_the_object_beam(
    tiny_split, regime_models, regime, beam_width, monkeypatch
):
    irn = regime_models(regime)
    instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=12)
    args = (
        [list(inst.history)[-12:] for inst in instances],
        [inst.objective for inst in instances],
        [inst.user_index for inst in instances],
    )
    knobs = dict(beam_width=beam_width, branch_factor=3, plan_cache_size=0, objective_bonus=2.0)
    kept = []
    keep = irn_module._RootCache.keep

    def recording_keep(cache, live):
        kept.append(int(live.sum()))
        return keep(cache, live)

    monkeypatch.setattr(irn_module._RootCache, "keep", recording_keep)
    array = BeamSearchPlanner(irn, **knobs).fit(tiny_split)
    reference = ReferenceBeamPlanner(irn, **knobs).fit(tiny_split)
    before = irn.decode_stats.snapshot()
    plans = array.plan_paths_batch(*args, max_length=8)
    work = {key: irn.decode_stats.snapshot()[key] - before[key] for key in before}
    before = irn.decode_stats.snapshot()
    assert reference.plan_paths_batch(*args, max_length=8) == plans
    assert {key: irn.decode_stats.snapshot()[key] - before[key] for key in before} == work
    if regime == "incremental":
        assert work["tokens_incremental"] and not work["tokens_fallback"]
    else:
        assert work["tokens_fallback"] and not work["tokens_incremental"]
    if regime == "shared" and beam_width == 1:
        # a root whose rows all reached the objective died mid-plan: the
        # root cache kept the live ones only, and the plans did not move
        assert kept


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_real_irn_pruned_plans_like_the_object_beam_on_the_list_path(
    tiny_split, regime_models, regime
):
    """The planner plans pruned beams through shortlist-space decoding
    sessions; the object beam, sessions off, re-scores every hypothesis at
    its ``(rows, K)`` table."""
    irn = regime_models(regime)
    instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=12)
    histories = [list(inst.history)[-12:] for inst in instances]
    objectives = [inst.objective for inst in instances]
    knobs = dict(
        beam_width=3,
        branch_factor=3,
        plan_cache_size=0,
        objective_bonus=2.0,
        candidate_generator=_Shortlists(irn.vocab_size, 7, "mixed"),
    )
    array = BeamSearchPlanner(irn, **knobs).fit(tiny_split)
    reference = ReferenceBeamPlanner(irn, sessions=False, **knobs).fit(tiny_split)
    plans = array.plan_paths_batch(histories, objectives, max_length=8)
    assert any(plans)
    assert reference.plan_paths_batch(histories, objectives, max_length=8) == plans
