"""A decoding session is a right-aligned token block plus its roots.

``select`` is a row gather of the block and of ``roots``; ``append`` writes
one column; lengths, users, objectives and ``r_u`` are the roots', read
through ``roots``; the root block itself is never gathered.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.session import DecodingSession
from repro.data.padding import pre_pad_block
from repro.utils.exceptions import ConfigurationError

HISTORIES = [[1, 2, 3], [4], []]


def session() -> DecodingSession:
    return DecodingSession(
        pre_pad_block(HISTORIES),
        np.asarray([3, 1, 0]),
        users=np.asarray([10, 11, 12]),
        objectives=np.asarray([7, 8, 9]),
        state=None,
        incremental=False,
        impressionability=np.asarray([0.5, 1.5, 2.5]),
    )


def test_select_gathers_rows_and_append_writes_one_column():
    decoding = session()
    decoding.select([2, 0, 0, 1])
    decoding.append([5, 6, 7, 8])
    assert decoding.tokens.tolist() == [[0, 0, 0, 5], [1, 2, 3, 6], [1, 2, 3, 7], [0, 0, 4, 8]]
    assert decoding.rows == [[5], [1, 2, 3, 6], [1, 2, 3, 7], [4, 8]]
    assert decoding.lengths.tolist() == [1, 4, 4, 2]
    assert decoding.roots.tolist() == [2, 0, 0, 1]
    assert decoding.users.tolist() == [12, 10, 10, 11]
    assert decoding.objectives.tolist() == [9, 7, 7, 8]
    assert decoding.impressionability.tolist() == [2.5, 0.5, 0.5, 1.5]
    assert (decoding.width, decoding.steps, decoding.batch_size) == (4, 1, 4)


def test_the_block_outgrows_its_first_capacity():
    decoding = session()
    for step in range(20):
        decoding.select([0, 1])  # root 2 drops out, then the rows stay put
        decoding.append([100 + step, 200 + step])
    assert decoding.objectives.tolist() == [7, 8]
    assert decoding.rows == [
        [1, 2, 3] + list(range(100, 120)),
        [4] + list(range(200, 220)),
    ]
    assert decoding.tokens.shape == (2, 23)


def test_the_root_block_is_never_gathered():
    decoding = session()
    decoding.select([1, 1])
    decoding.append([5, 6])
    assert decoding.root_tokens.tolist() == pre_pad_block(HISTORIES).tolist()
    assert decoding.root_lengths.tolist() == [3, 1, 0]


@pytest.mark.parametrize(
    "parents, new_items",
    [([0, 3], [5, 6]), ([-1], [5]), (None, [5, 6])],
    ids=["past-the-end", "negative", "short"],
)
def test_a_refused_gather_or_append_changes_nothing(parents, new_items):
    decoding = session()
    with pytest.raises(ConfigurationError):
        if parents is not None:
            decoding.select(parents)
        decoding.append(new_items)
    assert decoding.tokens.tolist() == pre_pad_block(HISTORIES).tolist()
    assert (decoding.roots.tolist(), decoding.width, decoding.steps) == ([0, 1, 2], 3, 0)
