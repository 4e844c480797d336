"""Unit and property tests for the item vocabulary."""

import pytest
from hypothesis import given, strategies as st

from repro.data.vocab import PAD_TOKEN, Vocabulary
from repro.utils.exceptions import DataError


class TestVocabulary:
    def test_padding_occupies_index_zero(self):
        vocab = Vocabulary()
        assert vocab.size == 1
        assert vocab.num_items == 0
        assert vocab.item(0) == PAD_TOKEN

    def test_add_assigns_contiguous_indices(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 1
        assert vocab.add("b") == 2
        assert vocab.add("a") == 1  # idempotent
        assert vocab.size == 3

    def test_constructor_accepts_iterable(self):
        vocab = Vocabulary(["x", "y", "x"])
        assert vocab.num_items == 2

    def test_index_of_unknown_item_raises(self):
        with pytest.raises(DataError):
            Vocabulary().index("missing")

    def test_item_out_of_range_raises(self):
        with pytest.raises(DataError):
            Vocabulary(["a"]).item(5)

    def test_pad_token_cannot_be_added(self):
        with pytest.raises(DataError):
            Vocabulary().add(PAD_TOKEN)

    def test_contains_and_iter(self):
        vocab = Vocabulary(["a", "b"])
        assert "a" in vocab and "missing" not in vocab
        assert list(vocab) == [PAD_TOKEN, "a", "b"]
        assert len(vocab) == 3

    def test_item_indices_excludes_padding(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert list(vocab.item_indices()) == [1, 2, 3]

    # The reserved token is not an item (test_pad_token_cannot_be_added); newer
    # hypothesis releases draw string literals found in the source, "<pad>" included.
    @given(
        st.lists(st.text(min_size=1).filter(lambda s: s != PAD_TOKEN), min_size=1, max_size=30)
    )
    def test_encode_decode_round_trip(self, items):
        vocab = Vocabulary(items)
        encoded = vocab.encode(items)
        assert vocab.decode(encoded) == items
        assert all(index >= 1 for index in encoded)

    @given(st.lists(st.integers(), min_size=1, max_size=50, unique=True))
    def test_size_matches_unique_items(self, items):
        vocab = Vocabulary(items)
        assert vocab.num_items == len(items)
        assert vocab.size == len(items) + 1
