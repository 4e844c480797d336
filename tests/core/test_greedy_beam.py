"""Algorithm 1 as a width-1 beam rolls out exactly what the lockstep greedy loop did.

``IRN.generate_paths_batch`` plans through a
``BeamSearchPlanner(beam_width=1, branch_factor=1, objective_bonus=0.0)``;
:mod:`tests.core.reference_greedy` keeps the greedy loop it replaced.  Both
roll out the same contexts and must return equal paths — for every PIM mask
type, in every decoding-session regime (one layer: incremental; two layers
under an objective-revealing mask: shared within a depth; contexts that
outgrow the window: per-row), at the shortest horizon and on an empty batch.
"""

from __future__ import annotations

import pytest

from repro.core.irn import IRN
from repro.core.pim import MaskType
from repro.evaluation.protocol import sample_objectives
from repro.obs.registry import get_registry
from tests.core.reference_greedy import reference_generate_paths_batch

MODELS = {
    "causal": dict(mask_type=MaskType.CAUSAL),
    "objective": dict(mask_type=MaskType.OBJECTIVE),
    "personalized": dict(mask_type=MaskType.PERSONALIZED),
    "one-layer": dict(mask_type=MaskType.PERSONALIZED, num_layers=1),
    # histories of 6-14 items plus the path outgrow an 8-token window
    "window": dict(mask_type=MaskType.PERSONALIZED, max_sequence_length=8),
}


@pytest.fixture(scope="module")
def models(tiny_split):
    cache: dict = {}

    def get(name: str) -> IRN:
        if name not in cache:
            knobs = {"num_layers": 2, "max_sequence_length": 50, **MODELS[name]}
            cache[name] = IRN(
                embedding_dim=8, user_dim=4, num_heads=2, epochs=1, batch_size=64, seed=0,
                **knobs,
            ).fit(tiny_split)
        return cache[name]

    return get


@pytest.fixture(scope="module")
def contexts(tiny_split):
    instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=12)
    return (
        [list(inst.history) for inst in instances],
        [inst.objective for inst in instances],
        # a missing user reads the model's default impressionability
        [None if slot % 3 == 0 else inst.user_index for slot, inst in enumerate(instances)],
    )


@pytest.mark.parametrize("max_length", [1, 8])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_paths_equal_the_greedy_loop(models, contexts, name, max_length):
    irn = models(name)
    paths = irn.generate_paths_batch(*contexts, max_length=max_length)
    assert paths == reference_generate_paths_batch(irn, *contexts, max_length=max_length)
    assert all(1 <= len(path) <= max_length for path in paths)


def test_empty_batch(models):
    irn = models("personalized")
    assert irn.generate_paths_batch([], []) == []
    assert reference_generate_paths_batch(irn, [], []) == []


def test_repeated_rollouts_register_no_new_metrics(models, contexts):
    def instruments() -> int:
        return sum(len(kind) for kind in get_registry().snapshot().values())

    irn = models("personalized")
    irn.generate_paths_batch(*contexts, max_length=4)
    before = instruments()
    for _ in range(3):
        irn.generate_paths_batch(*contexts, max_length=4)
    assert instruments() == before
