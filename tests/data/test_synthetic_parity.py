"""The synthetic corpus is the one the per-draw generator drew, byte for byte.

``generate_synthetic_dataset`` draws items and genre steps from CDFs it
builds once, where the generator kept in ``tests/data/reference_synthetic.py``
called ``Generator.choice`` per draw.  Both consume the same random stream in
the same order, so every config below must give equal interactions (user,
item id, timestamp, rating, in order), equal ``item_genres`` and equal
``user_traits`` floats; a uniform pick drawn with ``random()`` instead of
``integers`` changes them.  A random stream lands on a CDF entry or past an
unnormalised CDF's end with a chance near 2**-53, so a search on the wrong
side or a CDF not divided by its last value are caught by the boundary test,
which draws with the uniforms 0 and ``nextafter(1, 0)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import lastfm, movielens, synthetic
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.experiments.config import ExperimentConfig
from repro.utils.rng import as_rng
from tests.data import reference_synthetic
from tests.data.reference_synthetic import reference_generate_synthetic_dataset

#: ``benchmarks/e2e/workloads.py``'s ``SMALL_SYNTHETIC`` (copied, not imported:
#: the benchmark may move, the corpus it pinned must not)
E2E_SMALL = dict(name="e2e-small", num_users=120, num_items=240, num_genres=8, seed=0)

#: one item per genre and no second genres: a step that stays in its genre
#: masks the genre's only item, leaving no weight to draw by
UNIFORM_BRANCH = dict(
    name="uniform-branch",
    num_users=12,
    num_items=4,
    num_genres=4,
    multi_genre_probability=0.0,
    min_sequence_length=10,
    max_sequence_length=20,
    seed=5,
)


def assert_same_corpus(config: SyntheticConfig) -> None:
    expected = reference_generate_synthetic_dataset(config)
    actual = generate_synthetic_dataset(config)
    assert actual.name == expected.name
    assert actual.interactions == expected.interactions
    assert actual.item_genres == expected.item_genres
    assert actual.user_traits == expected.user_traits


@pytest.mark.parametrize(
    "overrides",
    [E2E_SMALL, dict(), dict(seed=3), dict(seed=11)],
    ids=["e2e-small", "default", "default-seed3", "default-seed11"],
)
def test_synthetic_configs_match_the_reference(overrides):
    assert_same_corpus(SyntheticConfig(**overrides))


@pytest.mark.parametrize(
    "dataset,module", [("movielens", movielens), ("lastfm", lastfm)]
)
def test_fast_profile_presets_match_the_reference(dataset, module, monkeypatch):
    configs = []

    def recording(config):
        configs.append(config)
        return generate_synthetic_dataset(config)

    monkeypatch.setattr(module, "generate_synthetic_dataset", recording)
    actual = ExperimentConfig.fast(dataset).load_dataset()
    (config,) = configs
    expected = reference_generate_synthetic_dataset(config)
    assert actual.interactions == expected.interactions
    assert actual.item_genres == expected.item_genres
    assert actual.user_traits == expected.user_traits


def test_the_no_weight_left_branch_matches_the_reference():
    config = SyntheticConfig(**UNIFORM_BRANCH)
    assert_same_corpus(config)
    # Only a draw with every weight zeroed can repeat the item just drawn.
    dataset = generate_synthetic_dataset(config)
    repeats = sum(
        a.user == b.user and a.item == b.item
        for a, b in zip(dataset.interactions, dataset.interactions[1:])
    )
    assert repeats > 0


class _CountingRng:
    """A generator that counts its ``choice`` calls and forwards the rest."""

    def __init__(self, rng) -> None:
        self._rng = rng
        self.choice_calls = 0

    def choice(self, *args, **kwargs):
        self.choice_calls += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _count_choice_calls(module, generate, config, monkeypatch) -> "tuple[int, int]":
    """``generate(config)``'s ``choice`` calls on the generator ``module``
    seeds through ``as_rng``, and the interactions it drew."""
    proxies = []

    def counting_as_rng(seed):
        proxies.append(_CountingRng(as_rng(seed)))
        return proxies[-1]

    monkeypatch.setattr(module, "as_rng", counting_as_rng)
    dataset = generate(config)
    (proxy,) = proxies
    return proxy.choice_calls, len(dataset.interactions)


def test_no_choice_call_per_interaction_or_step(monkeypatch):
    config = SyntheticConfig(**E2E_SMALL)
    calls, _ = _count_choice_calls(synthetic, generate_synthetic_dataset, config, monkeypatch)
    assert calls == 0
    # The proxy sees the per-draw generator's calls: one item draw and one
    # genre step per interaction, each user's first home genre, and the
    # catalog's one draw of second-genre directions.
    reference_calls, interactions = _count_choice_calls(
        reference_synthetic, reference_generate_synthetic_dataset, config, monkeypatch
    )
    assert reference_calls == 2 * interactions + config.num_users + 1


class _FixedUniform(np.random.Generator):
    """A generator whose scalar ``random()`` always returns ``uniform``."""

    def __init__(self, uniform: float) -> None:
        super().__init__(np.random.PCG64(0))
        self.uniform = uniform

    def random(self, size=None, dtype=np.float64, out=None):
        assert size is None and out is None
        return self.uniform


@pytest.mark.parametrize(
    "uniform,end", [(0.0, 0), (np.nextafter(1.0, 0.0), -1)], ids=["zero", "below-one"]
)
def test_boundary_uniforms_draw_the_outermost_weighted_item(uniform, end):
    """As ``choice`` draws: a uniform of 0 draws the first item or genre with
    weight, the largest uniform below 1 the last one, on every item CDF and
    every genre step (a stay probability of 0 zeroes each row's diagonal)."""
    config = SyntheticConfig(**{**E2E_SMALL, "genre_stay_probability": 0.0})
    catalog = synthetic._ItemCatalog(config, as_rng(config.seed))
    rng = _FixedUniform(uniform)
    for genre, members in enumerate(catalog.items_by_genre):
        for avoid in [None, *members.tolist()]:
            weights = catalog.popularity[members] * (members != avoid)
            assert catalog.sample_item(genre, rng, avoid) == members[np.flatnonzero(weights)[end]]
    for row in synthetic._genre_transition_matrix(config):
        assert synthetic._draw(synthetic._choice_cdf(row), rng) == np.flatnonzero(row)[end]
