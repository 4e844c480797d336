"""Unit tests for the synthetic corpus generator."""

import warnings

import numpy as np
import pytest

from repro.data.preprocessing import build_corpus
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.utils.exceptions import ConfigurationError


def _config(**overrides):
    defaults = dict(
        name="synthetic-test",
        num_users=30,
        num_items=50,
        num_genres=5,
        min_sequence_length=12,
        max_sequence_length=20,
        seed=7,
    )
    defaults.update(overrides)
    return SyntheticConfig(**defaults)


class TestSyntheticConfig:
    def test_default_genre_names_generated(self):
        config = _config()
        assert len(config.genre_names) == 5

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(num_users=0)
        with pytest.raises(ConfigurationError):
            _config(num_genres=100)  # more genres than items
        with pytest.raises(ConfigurationError):
            _config(min_sequence_length=10, max_sequence_length=5)
        with pytest.raises(ConfigurationError):
            _config(genre_names=["only-one"])

    # A config the walk cannot draw from is refused at construction, not by
    # numpy at the first draw (or, for the decay, never: its rows are NaN).
    @pytest.mark.parametrize(
        "knob", ["genre_stay_probability", "home_return_probability", "multi_genre_probability"]
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
    def test_probabilities_outside_the_unit_interval_rejected(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            _config(**{knob: value})

    @pytest.mark.parametrize("knob", ["genre_stay_probability", "home_return_probability"])
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_probability_bounds_accepted(self, knob, value):
        generate_synthetic_dataset(_config(**{knob: value}))

    @pytest.mark.parametrize("value", [0.0, -0.5])
    def test_non_positive_adjacency_decay_rejected(self, value):
        with pytest.raises(ConfigurationError, match="genre_adjacency_decay"):
            _config(genre_adjacency_decay=value)

    @pytest.mark.parametrize("knob", ["impressionability_alpha", "impressionability_beta"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_beta_parameter_rejected(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            _config(**{knob: value})

    def test_fewer_than_one_home_genre_rejected(self):
        with pytest.raises(ConfigurationError, match="min_home_genres"):
            _config(min_home_genres=0)

    def test_home_genre_range_must_not_be_empty(self):
        with pytest.raises(ConfigurationError, match="max_home_genres"):
            _config(min_home_genres=3, max_home_genres=2)

    def test_overflowing_popularity_exponent_rejected(self):
        config = _config(popularity_exponent=-400.0)  # 50 ** 400 is inf
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(ConfigurationError, match="popularity_exponent"):
                generate_synthetic_dataset(config)


class TestGenerator:
    def test_counts_and_lengths(self):
        config = _config()
        dataset = generate_synthetic_dataset(config)
        assert len(dataset.users) == 30
        per_user = {}
        for interaction in dataset.interactions:
            per_user.setdefault(interaction.user, []).append(interaction)
        for events in per_user.values():
            assert 12 <= len(events) <= 20

    def test_timestamps_are_increasing_per_user(self):
        dataset = generate_synthetic_dataset(_config())
        per_user = {}
        for interaction in dataset.interactions:
            per_user.setdefault(interaction.user, []).append(interaction.timestamp)
        for timestamps in per_user.values():
            assert timestamps == sorted(timestamps)

    def test_every_item_has_genres(self):
        config = _config()
        dataset = generate_synthetic_dataset(config)
        assert len(dataset.item_genres) == config.num_items
        for genres in dataset.item_genres.values():
            assert 1 <= len(genres) <= 2
            assert all(g in config.genre_names for g in genres)

    def test_user_traits_are_probabilities(self):
        dataset = generate_synthetic_dataset(_config())
        traits = np.array(list(dataset.user_traits.values()))
        assert traits.shape == (30,)
        assert np.all((traits > 0) & (traits < 1))

    def test_a_single_genre_generates_and_only_stays(self):
        """A single-genre ring can only stay: its transition row is ``[1.0]``,
        not 0/0, whatever the stay probability, so the corpus is the one a
        stay probability of 1 draws."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dataset = generate_synthetic_dataset(_config(num_genres=1))
        staying = generate_synthetic_dataset(_config(num_genres=1, genre_stay_probability=1.0))
        assert dataset.interactions == staying.interactions
        assert set(dataset.item_genres.values()) == {("genre-0",)}

    def test_deterministic_given_seed(self):
        a = generate_synthetic_dataset(_config(seed=3))
        b = generate_synthetic_dataset(_config(seed=3))
        assert [i.item for i in a.interactions] == [i.item for i in b.interactions]

    def test_different_seeds_differ(self):
        a = generate_synthetic_dataset(_config(seed=1))
        b = generate_synthetic_dataset(_config(seed=2))
        assert [i.item for i in a.interactions] != [i.item for i in b.interactions]

    def test_no_immediate_repeats(self):
        dataset = generate_synthetic_dataset(_config())
        per_user = {}
        for interaction in dataset.interactions:
            per_user.setdefault(interaction.user, []).append(interaction.item)
        for items in per_user.values():
            assert all(a != b for a, b in zip(items[:-1], items[1:]))

    def test_popularity_is_skewed(self):
        """A few items should account for a disproportionate share of interactions."""
        corpus = build_corpus(generate_synthetic_dataset(_config(num_users=80)), min_interactions=1)
        counts = np.sort(corpus.item_popularity())[::-1]
        top_decile = counts[: max(1, len(counts) // 10)].sum()
        assert top_decile / counts.sum() > 0.2

    def test_sequential_genre_coherence(self):
        """Consecutive items share a genre far more often than random pairs would."""
        config = _config(num_users=60)
        dataset = generate_synthetic_dataset(config)
        corpus = build_corpus(dataset, min_interactions=1)
        matrix = corpus.item_genre_matrix
        same_genre = []
        rng = np.random.default_rng(0)
        random_same = []
        for sequence in corpus.user_sequences:
            for a, b in zip(sequence[:-1], sequence[1:]):
                same_genre.append(bool((matrix[a] & matrix[b]).any()))
                c, d = rng.integers(1, corpus.vocab.size, size=2)
                random_same.append(bool((matrix[c] & matrix[d]).any()))
        assert np.mean(same_genre) > np.mean(random_same) + 0.1
