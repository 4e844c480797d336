"""Unit and property tests for pre-/post-padding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data.padding import (
    PAD_INDEX,
    pad_batch,
    pad_sequence,
    post_pad,
    pre_pad,
    pre_pad_block,
)
from repro.utils.exceptions import DataError

sequences = st.lists(st.integers(min_value=1, max_value=500), min_size=0, max_size=40)
lengths = st.integers(min_value=1, max_value=50)


class TestPrePad:
    def test_pads_on_the_left(self):
        assert pre_pad([1, 2, 3], 5) == [PAD_INDEX, PAD_INDEX, 1, 2, 3]

    def test_truncates_keeping_most_recent(self):
        assert pre_pad([1, 2, 3, 4, 5], 3) == [3, 4, 5]

    def test_objective_stays_at_fixed_last_position(self):
        """The §III-D5 motivation: the last item keeps the final slot."""
        for sequence in ([7], [1, 7], [1, 2, 3, 7], list(range(1, 30)) + [7]):
            assert pre_pad(sequence, 10)[-1] == 7

    def test_rejects_non_positive_length(self):
        with pytest.raises(DataError):
            pre_pad([1], 0)


class TestPostPad:
    def test_pads_on_the_right(self):
        assert post_pad([1, 2], 4) == [1, 2, PAD_INDEX, PAD_INDEX]

    def test_truncates_keeping_first_items(self):
        assert post_pad([1, 2, 3, 4], 2) == [1, 2]

    def test_last_item_position_varies_with_length(self):
        """Contrast with pre-padding: the last real item moves around."""
        positions = {post_pad(list(range(1, n + 1)), 10).index(n) for n in (1, 3, 5)}
        assert len(positions) > 1


class TestDispatchAndBatch:
    def test_pad_sequence_dispatch(self):
        assert pad_sequence([1], 3, scheme="pre") == [0, 0, 1]
        assert pad_sequence([1], 3, scheme="post") == [1, 0, 0]
        with pytest.raises(DataError):
            pad_sequence([1], 3, scheme="middle")

    def test_pad_batch_defaults_to_longest(self):
        batch = pad_batch([[1], [1, 2, 3]])
        assert batch.shape == (2, 3)
        assert batch.dtype == np.int64

    def test_pad_batch_empty_rejected(self):
        with pytest.raises(DataError):
            pad_batch([])

    def test_pad_batch_fixed_length(self):
        batch = pad_batch([[1, 2], [3]], length=4, scheme="post")
        assert batch.shape == (2, 4)
        assert batch[1].tolist() == [3, 0, 0, 0]


class TestPrePadBlock:
    def test_right_aligns_without_truncating(self):
        block = pre_pad_block([[1, 2, 3], [4], []])
        assert block.dtype == np.int64
        assert block.tolist() == [[1, 2, 3], [0, 0, 4], [0, 0, 0]]

    def test_empty_rows_give_an_empty_block(self):
        assert pre_pad_block([[], []]).shape == (2, 0)
        assert pre_pad_block([]).shape == (0, 0)

    @given(st.lists(sequences, min_size=1, max_size=6))
    def test_matches_pad_batch_where_both_apply(self, rows):
        if max(len(row) for row in rows):
            np.testing.assert_array_equal(pre_pad_block(rows), pad_batch(rows))


class TestPaddingProperties:
    @given(sequences, lengths)
    def test_output_length_is_exact(self, sequence, length):
        assert len(pre_pad(sequence, length)) == length
        assert len(post_pad(sequence, length)) == length

    @given(sequences, lengths)
    def test_real_items_preserved_in_order(self, sequence, length):
        padded = pre_pad(sequence, length)
        real = [item for item in padded if item != PAD_INDEX]
        assert real == sequence[-length:] if len(sequence) >= length else real == sequence

    @given(sequences, lengths)
    def test_pre_padding_keeps_suffix_post_keeps_prefix(self, sequence, length):
        pre = pre_pad(sequence, length)
        post = post_pad(sequence, length)
        keep = min(len(sequence), length)
        if keep:
            assert pre[-keep:] == sequence[-keep:]
            assert post[:keep] == sequence[:keep]

    @given(sequences, lengths)
    def test_padding_count_is_complementary(self, sequence, length):
        padded = pre_pad(sequence, length)
        num_pads = sum(1 for item in padded if item == PAD_INDEX)
        expected_pads = max(0, length - len(sequence)) + sum(
            1 for item in sequence[-length:] if item == PAD_INDEX
        )
        assert num_pads == expected_pads
