"""The lockstep greedy rollout IRN ran Algorithm 1 with, kept as the path oracle.

This is ``IRN.generate_paths_batch`` as it rolled out before Algorithm 1
became a width-1 :class:`~repro.core.beam.BeamSearchPlanner`: every
instance still alive at step ``k`` shares one
``score_with_objective_batch`` forward over its full sequence, seen items
are masked, and the argmax is appended until the objective, a step with no
finite score, or ``max_length``.  The loop is unchanged; only ``self``
became the ``irn`` argument.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.influence_path import mask_session_items
from repro.data.padding import pre_pad_block
from repro.utils.batch import broadcast_user_indices, check_batch_lengths
from repro.utils.exceptions import ConfigurationError


def reference_generate_paths_batch(
    irn,
    histories: Sequence[Sequence[int]],
    objectives: Sequence[int],
    user_indices: "Sequence[int | None] | None" = None,
    max_length: int = 20,
) -> list[list[int]]:
    """Run Algorithm 1 for many ``(history, objective)`` instances in lockstep."""
    if max_length <= 0:
        raise ConfigurationError(f"max_length must be positive, got {max_length}")
    irn._require_fitted()
    count = len(histories)
    histories = [list(history) for history in histories]
    objectives = [int(objective) for objective in objectives]
    check_batch_lengths(count, objectives=objectives)
    users = broadcast_user_indices(count, user_indices)
    paths: list[list[int]] = [[] for _ in range(count)]
    active = list(range(count))
    for _ in range(max_length):
        if not active:
            break
        sequences = [histories[i] + paths[i] for i in active]
        scores = irn.score_with_objective_batch(
            sequences,
            [objectives[i] for i in active],
            [users[i] for i in active],
        )
        mask_session_items(scores, pre_pad_block(sequences), [objectives[i] for i in active])
        best = np.argmax(scores, axis=1)
        finite = np.isfinite(scores[np.arange(len(active)), best])
        still_active: list[int] = []
        for slot, i in enumerate(active):
            if not finite[slot]:
                continue
            item = int(best[slot])
            paths[i].append(item)
            if item != objectives[i]:
                still_active.append(i)
        active = still_active
    return paths
