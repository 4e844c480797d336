"""Pruned plans through decoding sessions are the re-scoring oracle's plans.

A planner with a candidate generator plans each shortlisted context in
shortlist space: its decoding session keeps the plan's ``(instances, K)``
item table and projects every depth onto it.  The oracle — the object beam
of ``tests/core/reference_beam.py`` with its sessions off — re-scores every
depth's right-aligned sequences against the table gathered by owner.  Both
must plan the same paths in every regime a session advance can run in:

* a 1-layer IRN whose window slides mid-plan — incremental, then the
  per-row window;
* a 2-layer PIM IRN — history shared within a depth;
* a 2-layer causal IRN — incremental at every depth.

The shortlists are unequal (the table pads a shorter one by repeating its
last item), and contexts the generator answers ``None`` for plan exactly in
the same drain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.core.pim import MaskType
from repro.evaluation.protocol import sample_objectives
from repro.retrieval.base import CandidateGenerator
from tests.core.reference_beam import ReferenceBeamPlanner

WINDOW = 10  # the 1-layer model's window: 5-item contexts slide after 5 steps of 8

MODELS = {
    "window": dict(num_layers=1, mask_type=MaskType.PERSONALIZED, max_sequence_length=WINDOW),
    "shared": dict(num_layers=2, mask_type=MaskType.PERSONALIZED, max_sequence_length=50),
    "causal": dict(num_layers=2, mask_type=MaskType.CAUSAL, max_sequence_length=50),
}


class _UnequalShortlists(CandidateGenerator):
    """Seeded shortlists of 2 to 14 items; ``None`` for an odd objective."""

    name = "unequal"

    def _fit(self, corpus, vocab_size: int) -> None:
        pass

    def _candidates(self, history, objective, user_index):
        if objective % 2:
            return None
        rng = np.random.default_rng([objective, len(history)])
        size = int(rng.integers(2, 15))
        return rng.choice(np.arange(1, self.vocab_size), size=size, replace=False)


@pytest.fixture(scope="module")
def contexts(tiny_split):
    instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=12)
    contexts = [(list(inst.history)[-5:], inst.objective, inst.user_index) for inst in instances]
    # both groups in one drain, whatever objectives were sampled: each of the
    # first four contexts again, its objective's parity flipped
    contexts += [(h, o - 1 if o % 2 == 0 else o + 1, u) for h, o, u in contexts[:4]]
    assert any(o % 2 for _, o, _ in contexts) and not all(o % 2 for _, o, _ in contexts)
    return contexts


@pytest.mark.parametrize("regime", sorted(MODELS))
def test_session_and_list_paths_plan_the_same_pruned_paths(
    tiny_split, contexts, regime, monkeypatch
):
    irn = IRN(
        embedding_dim=8, user_dim=4, num_heads=2, history_weight=0.3, epochs=1,
        batch_size=64, seed=0, **MODELS[regime],
    ).fit(tiny_split)
    tables = []
    begin = IRN.begin_decoding_session

    def recording_begin(self, *args, candidate_items=None, **kwargs):
        if candidate_items is not None:
            tables.append(candidate_items)
        return begin(self, *args, candidate_items=candidate_items, **kwargs)

    monkeypatch.setattr(IRN, "begin_decoding_session", recording_begin)
    args = tuple(list(column) for column in zip(*contexts))

    def plan(planner_type, **switch):
        generator = _UnequalShortlists()
        planner = planner_type(
            irn,
            beam_width=3,
            branch_factor=3,
            objective_bonus=0.5,
            plan_cache_size=0,
            candidate_generator=generator,
            **switch,
        ).fit(tiny_split)
        before = irn.decode_stats.snapshot()
        plans = planner.plan_paths_batch(*args, max_length=8)
        work = {key: irn.decode_stats.snapshot()[key] - before[key] for key in before}
        info = planner.cache_info()["retrieval"]
        assert 0 < info["fallbacks"] < info["requests"]
        return plans, work

    through_sessions, work = plan(BeamSearchPlanner)
    on_lists, list_work = plan(ReferenceBeamPlanner, sessions=False)
    assert through_sessions == on_lists
    assert any(through_sessions)
    # the pruned group began one session, over unequal, padded shortlists
    (table,) = tables
    assert (table[:, 1:] == table[:, :-1]).any()
    assert list_work["incremental_forwards"] == list_work["fallback_forwards"] == 0
    if regime == "window":
        assert work["tokens_incremental"] and work["tokens_fallback"]
    elif regime == "shared":
        assert work["tokens_fallback"] and not work["tokens_incremental"]
    else:
        assert work["tokens_incremental"] and not work["tokens_fallback"]
