"""Sequence padding (pre- and post-padding, §III-D5 of the paper).

IRN uses *pre-padding* so the objective item always occupies the final
position of the fixed-length window; the conventional baselines use
post-padding.  Both schemes are provided and unit/property tested.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.exceptions import DataError

__all__ = ["PAD_INDEX", "pre_pad", "post_pad", "pad_sequence", "pad_batch", "pre_pad_block"]

#: Index of the padding token in every vocabulary built by this package.
PAD_INDEX = 0


def pre_pad(sequence: Sequence[int], length: int, pad_value: int = PAD_INDEX) -> list[int]:
    """Left-pad (or left-truncate) ``sequence`` to exactly ``length`` items.

    When the sequence is longer than ``length`` the *oldest* items are
    dropped, keeping the most recent ones (and therefore the objective item
    at the final position).
    """
    if length <= 0:
        raise DataError(f"target length must be positive, got {length}")
    sequence = list(sequence)
    if len(sequence) >= length:
        return sequence[-length:]
    return [pad_value] * (length - len(sequence)) + sequence


def post_pad(sequence: Sequence[int], length: int, pad_value: int = PAD_INDEX) -> list[int]:
    """Right-pad (or right-truncate to the first items) to exactly ``length``."""
    if length <= 0:
        raise DataError(f"target length must be positive, got {length}")
    sequence = list(sequence)
    if len(sequence) >= length:
        return sequence[:length]
    return sequence + [pad_value] * (length - len(sequence))


def pad_sequence(
    sequence: Sequence[int],
    length: int,
    scheme: str = "pre",
    pad_value: int = PAD_INDEX,
) -> list[int]:
    """Pad with the named scheme (``"pre"`` or ``"post"``)."""
    if scheme == "pre":
        return pre_pad(sequence, length, pad_value)
    if scheme == "post":
        return post_pad(sequence, length, pad_value)
    raise DataError(f"unknown padding scheme '{scheme}'")


def pad_batch(
    sequences: Sequence[Sequence[int]],
    length: int | None = None,
    scheme: str = "pre",
    pad_value: int = PAD_INDEX,
) -> np.ndarray:
    """Pad a batch of sequences into an ``(batch, length)`` int64 array.

    ``length`` defaults to the longest sequence in the batch.
    """
    if not sequences:
        raise DataError("cannot pad an empty batch")
    if length is None:
        length = max(len(seq) for seq in sequences)
    rows = [pad_sequence(seq, length, scheme=scheme, pad_value=pad_value) for seq in sequences]
    return np.asarray(rows, dtype=np.int64)


def pre_pad_block(rows: Sequence[Sequence[int]], pad_value: int = PAD_INDEX) -> np.ndarray:
    """Right-align ragged rows into one ``(batch, longest)`` int64 block.

    Rows are left-padded and never truncated; unlike :func:`pad_batch`,
    any row may be empty (a batch of empty rows is ``(batch, 0)``).
    """
    width = max((len(row) for row in rows), default=0)
    block = np.full((len(rows), width), pad_value, dtype=np.int64)
    for index, row in enumerate(rows):
        if len(row):
            block[index, width - len(row) :] = row
    return block
