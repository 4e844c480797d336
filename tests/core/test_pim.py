"""Unit and property tests for the Personalized Impressionability Mask."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pim import (
    MaskType,
    build_pim,
    causal_history_mask,
    objective_column_indicator,
)
from repro.data.padding import PAD_INDEX
from repro.nn.attention import NEG_INF
from repro.utils.exceptions import ConfigurationError


def _items(batch: int = 2, length: int = 6, pads: int = 2) -> np.ndarray:
    items = np.arange(1, batch * length + 1).reshape(batch, length)
    items[:, :pads] = PAD_INDEX
    return items


class TestCausalHistoryMask:
    def test_future_positions_blocked(self):
        mask = causal_history_mask(_items(pads=0))
        batch, length = 2, 6
        for j in range(length):
            for k in range(length):
                if k > j:
                    assert mask[0, j, k] == NEG_INF

    def test_padding_keys_blocked_for_all_queries(self):
        mask = causal_history_mask(_items(pads=2))
        assert np.all(mask[:, :, :2] == NEG_INF)

    def test_history_weight_applied_to_visible_positions(self):
        mask = causal_history_mask(_items(pads=0), history_weight=0.5)
        assert mask[0, 3, 2] == 0.5
        assert mask[0, 3, 4] == NEG_INF

    def test_rejects_non_2d_items(self):
        with pytest.raises(ConfigurationError):
            causal_history_mask(np.array([1, 2, 3]))


class TestObjectiveIndicator:
    def test_only_last_column_marked(self):
        indicator = objective_column_indicator(5)
        assert indicator.sum() == 4
        assert np.all(indicator[:4, 4] == 1.0)
        assert indicator[4, 4] == 0.0

    def test_degenerate_length(self):
        assert objective_column_indicator(1).sum() == 0.0


class TestBuildPim:
    def test_type1_keeps_objective_hidden(self):
        pim = build_pim(_items(), mask_type=MaskType.CAUSAL)
        assert np.all(pim[:, :-1, -1] == NEG_INF)

    def test_type2_reveals_objective_with_uniform_weight(self):
        pim = build_pim(_items(), mask_type=MaskType.OBJECTIVE, objective_weight=0.7)
        assert np.allclose(pim[:, :-1, -1], 0.7)
        # causal structure for everything else is untouched
        assert pim[0, 1, 3] == NEG_INF

    def test_type3_scales_by_impressionability(self):
        impressionability = np.array([0.5, 2.0])
        pim = build_pim(
            _items(),
            mask_type=MaskType.PERSONALIZED,
            objective_weight=1.0,
            impressionability=impressionability,
        )
        assert np.allclose(pim[0, :-1, -1], 0.5)
        assert np.allclose(pim[1, :-1, -1], 2.0)

    def test_type3_requires_impressionability(self):
        with pytest.raises(ConfigurationError):
            build_pim(_items(), mask_type=MaskType.PERSONALIZED)

    def test_zero_weight_type2_equals_revealed_causal(self):
        """w_t = 0 still reveals the objective but with no extra pull."""
        pim = build_pim(_items(), mask_type=MaskType.OBJECTIVE, objective_weight=0.0)
        assert np.allclose(pim[:, :-1, -1], 0.0)

    def test_history_weight_less_than_objective_weight(self):
        """The paper's w_t > w_h requirement is representable."""
        pim = build_pim(
            _items(pads=0), mask_type=MaskType.OBJECTIVE, objective_weight=1.0, history_weight=0.2
        )
        visible_history = pim[0, 3, 1]
        objective = pim[0, 3, -1]
        assert objective > visible_history

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_pim_only_modifies_objective_column(self, batch, length, weight):
        rng = np.random.default_rng(0)
        items = rng.integers(1, 50, size=(batch, length))
        base = build_pim(items, mask_type=MaskType.CAUSAL)
        revealed = build_pim(items, mask_type=MaskType.OBJECTIVE, objective_weight=weight)
        difference = revealed != base
        # only entries in the final column (excluding the last row) may differ
        assert not difference[:, :, :-1].any()
        assert not difference[:, -1, :].any()


class TestMaskDtype:
    """Inference builds its masks in the program's dtype, once: the values are
    the float64 mask's, rounded once."""

    @pytest.mark.parametrize("mask_type", list(MaskType), ids=lambda mask: mask.name.lower())
    def test_a_float32_pim_is_the_float64_pim_rounded(self, mask_type):
        kwargs = dict(
            mask_type=mask_type,
            objective_weight=4.5,
            history_weight=0.3,
            impressionability=np.asarray([0.7, -1.3]),
        )
        reference = build_pim(_items(), **kwargs)
        mask = build_pim(_items(), dtype=np.float32, **kwargs)
        assert reference.dtype == np.float64 and mask.dtype == np.float32
        np.testing.assert_array_equal(mask, reference.astype(np.float32))

    def test_a_float32_causal_mask_is_the_float64_mask_rounded(self):
        reference = causal_history_mask(_items(), history_weight=0.3)
        mask = causal_history_mask(_items(), history_weight=0.3, dtype=np.float32)
        assert mask.dtype == np.float32
        np.testing.assert_array_equal(mask, reference.astype(np.float32))
