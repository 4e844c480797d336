"""The per-draw synthetic-corpus generator, kept as the parity oracle.

This is ``repro.data.synthetic`` as it drew before the generator stopped
calling ``Generator.choice`` once per interaction and per step: every item
draw renormalises the genre's popularity weights (the previous item
zeroed) and hands them to ``rng.choice(members, p=...)``, and every genre
step calls ``rng.choice(num_genres, p=transition[genre])`` or
``rng.choice(home_genres)``.  The code is unchanged; only the entry point
became :func:`reference_generate_synthetic_dataset`.  The configs it is
run on are validated by :class:`~repro.data.synthetic.SyntheticConfig`.
"""

from __future__ import annotations

import numpy as np

from repro.data.interactions import Interaction, InteractionDataset
from repro.data.synthetic import SyntheticConfig
from repro.utils.rng import as_rng


class _ItemCatalog:
    """Items with genres and within-genre Zipf popularity."""

    def __init__(self, config: SyntheticConfig, rng: np.random.Generator) -> None:
        self.primary_genre = rng.integers(0, config.num_genres, size=config.num_items)
        # Guarantee each genre has at least one item.
        for genre in range(config.num_genres):
            if not np.any(self.primary_genre == genre):
                self.primary_genre[rng.integers(0, config.num_items)] = genre
        self.secondary_genre = np.full(config.num_items, -1, dtype=np.int64)
        second = rng.random(config.num_items) < config.multi_genre_probability
        neighbour = (self.primary_genre + rng.choice([-1, 1], size=config.num_items)) % config.num_genres
        self.secondary_genre[second] = neighbour[second]

        # Within-genre Zipf popularity.
        self.popularity = np.zeros(config.num_items, dtype=np.float64)
        for genre in range(config.num_genres):
            members = np.flatnonzero(self.primary_genre == genre)
            ranks = rng.permutation(len(members)) + 1
            self.popularity[members] = 1.0 / ranks**config.popularity_exponent

        self.items_by_genre = [
            np.flatnonzero(
                (self.primary_genre == genre) | (self.secondary_genre == genre)
            )
            for genre in range(config.num_genres)
        ]

    def sample_item(self, genre: int, rng: np.random.Generator, avoid: int | None) -> int:
        members = self.items_by_genre[genre]
        weights = self.popularity[members].copy()
        if avoid is not None:
            weights[members == avoid] = 0.0
        total = weights.sum()
        if total <= 0:
            return int(rng.choice(members))
        return int(rng.choice(members, p=weights / total))

    def genres_of(self, item: int, names: list[str]) -> tuple[str, ...]:
        genres = [names[self.primary_genre[item]]]
        if self.secondary_genre[item] >= 0:
            genres.append(names[self.secondary_genre[item]])
        return tuple(dict.fromkeys(genres))


def _genre_transition_matrix(config: SyntheticConfig) -> np.ndarray:
    """Ring-structured genre transition matrix (rows sum to 1)."""
    n = config.num_genres
    matrix = np.zeros((n, n), dtype=np.float64)
    for source in range(n):
        for target in range(n):
            if source == target:
                continue
            distance = min(abs(source - target), n - abs(source - target))
            matrix[source, target] = config.genre_adjacency_decay**distance
        row_sum = matrix[source].sum()
        matrix[source] = (1.0 - config.genre_stay_probability) * matrix[source] / row_sum
        matrix[source, source] = config.genre_stay_probability
    return matrix


def reference_generate_synthetic_dataset(config: SyntheticConfig) -> InteractionDataset:
    """Generate an :class:`InteractionDataset` according to ``config``."""
    rng = as_rng(config.seed)
    catalog = _ItemCatalog(config, rng)
    transition = _genre_transition_matrix(config)

    interactions: list[Interaction] = []
    user_traits: dict[str, float] = {}
    for user_number in range(config.num_users):
        user_id = f"u{user_number:05d}"
        impressionability = float(
            rng.beta(config.impressionability_alpha, config.impressionability_beta)
        )
        user_traits[user_id] = impressionability

        num_home = int(rng.integers(config.min_home_genres, config.max_home_genres + 1))
        anchor = int(rng.integers(0, config.num_genres))
        home_genres = [(anchor + offset) % config.num_genres for offset in range(num_home)]

        length = int(rng.integers(config.min_sequence_length, config.max_sequence_length + 1))
        genre = int(rng.choice(home_genres))
        previous_item: int | None = None
        for step in range(length):
            item = catalog.sample_item(genre, rng, avoid=previous_item)
            interactions.append(
                Interaction(user=user_id, item=f"i{item:05d}", timestamp=float(step), rating=1.0)
            )
            previous_item = item
            # Next genre: conservative users snap back to a home genre,
            # impressionable users follow the genre Markov chain.
            snap_back = rng.random() < config.home_return_probability * (1.0 - impressionability)
            if snap_back:
                genre = int(rng.choice(home_genres))
            else:
                genre = int(rng.choice(config.num_genres, p=transition[genre]))

    item_genres = {
        f"i{item:05d}": catalog.genres_of(item, config.genre_names)
        for item in range(config.num_items)
    }
    return InteractionDataset(
        name=config.name,
        interactions=interactions,
        item_genres=item_genres,
        user_traits=user_traits,
    )
