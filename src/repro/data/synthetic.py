"""Synthetic interaction-corpus generator.

The public MovieLens-1M and Lastfm datasets used by the paper cannot be
downloaded in this offline environment, so experiments run on synthetic
corpora that reproduce the *structural* properties the paper's evaluation
relies on:

* **Sequential genre coherence** — users move between item genres following a
  Markov chain whose transitions prefer "adjacent" genres, so multi-step
  paths between distant genres exist in the data (the raw material of
  influence paths, cf. Figure 1 of the paper).
* **Popularity skew** — item popularity within a genre is Zipfian, as in real
  recommendation logs.
* **User heterogeneity** — every user has a set of home genres and a latent
  *impressionability* in ``[0, 1]``: impressionable users wander further from
  their home genres, conservative users return to them.  This is the
  ground-truth counterpart of the Personalized Impressionability Factor that
  IRN learns, and lets the Figure 8 analysis be checked against a known
  distribution.

The generator emits a plain :class:`~repro.data.interactions.InteractionDataset`
so the exact preprocessing / splitting / evaluation pipeline of the paper
runs unchanged on it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from repro.data.interactions import Interaction, InteractionDataset
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import as_rng

__all__ = ["SyntheticConfig", "generate_synthetic_dataset"]


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic corpus generator.

    The defaults produce a small corpus suitable for NumPy-speed training;
    the MovieLens-1M- and Lastfm-flavoured presets live in
    :func:`repro.data.movielens.synthetic_movielens` and
    :func:`repro.data.lastfm.synthetic_lastfm`.

    Construction raises :class:`~repro.utils.exceptions.ConfigurationError`
    for a config the generator cannot draw from: non-positive counts, more
    genres than items, a sequence-length range that is not ``2 <= min <=
    max``, a wrong number of genre names, a ``genre_stay_probability``,
    ``home_return_probability`` or ``multi_genre_probability`` outside
    ``[0, 1]``, a ``genre_adjacency_decay`` that is not positive, a Beta
    parameter that is not positive, or a home-genre range that is not
    ``1 <= min_home_genres <= max_home_genres``.
    """

    name: str = "synthetic"
    num_users: int = 120
    num_items: int = 240
    num_genres: int = 8
    genre_names: list[str] = field(default_factory=list)
    min_sequence_length: int = 25
    max_sequence_length: int = 60
    #: probability of staying in the current genre at each step
    genre_stay_probability: float = 0.6
    #: geometric decay of transition probability with ring distance between genres
    genre_adjacency_decay: float = 0.45
    #: probability (scaled by 1 - impressionability) of snapping back to a home genre
    home_return_probability: float = 0.55
    #: Zipf exponent for within-genre item popularity
    popularity_exponent: float = 1.1
    #: probability that an item carries a second (adjacent) genre
    multi_genre_probability: float = 0.3
    #: Beta distribution parameters of the latent user impressionability
    impressionability_alpha: float = 4.0
    impressionability_beta: float = 4.0
    #: number of home genres per user
    min_home_genres: int = 1
    max_home_genres: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users <= 0 or self.num_items <= 0 or self.num_genres <= 0:
            raise ConfigurationError("num_users, num_items and num_genres must be positive")
        if self.num_genres > self.num_items:
            raise ConfigurationError("cannot have more genres than items")
        if self.min_sequence_length < 2 or self.max_sequence_length < self.min_sequence_length:
            raise ConfigurationError("invalid sequence length range")
        if not self.genre_names:
            self.genre_names = [f"genre-{i}" for i in range(self.num_genres)]
        if len(self.genre_names) != self.num_genres:
            raise ConfigurationError(
                f"expected {self.num_genres} genre names, got {len(self.genre_names)}"
            )
        for knob in (
            "genre_stay_probability", "home_return_probability", "multi_genre_probability"
        ):
            if not 0.0 <= getattr(self, knob) <= 1.0:
                raise ConfigurationError(f"{knob} must lie in [0, 1], got {getattr(self, knob)}")
        for knob in ("genre_adjacency_decay", "impressionability_alpha", "impressionability_beta"):
            if not getattr(self, knob) > 0.0:
                raise ConfigurationError(f"{knob} must be positive, got {getattr(self, knob)}")
        if self.min_home_genres < 1 or self.max_home_genres < self.min_home_genres:
            raise ConfigurationError(
                "need 1 <= min_home_genres <= max_home_genres, got "
                f"{self.min_home_genres} and {self.max_home_genres}"
            )


def _choice_cdf(p: np.ndarray) -> memoryview:
    """The CDF ``Generator.choice(..., p=p)`` searches: ``cumsum(p)``
    divided by its last value, so the last entry is exactly 1."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return memoryview(cdf)


def _draw(cdf: memoryview, rng: np.random.Generator) -> int:
    """The index ``Generator.choice`` draws from ``cdf``:
    ``searchsorted(random(), side="right")``, which ``bisect_right`` is on
    finite floats.  A uniform of 0 skips leading zero weights, and every
    uniform below 1 lands inside the CDF."""
    return bisect_right(cdf, rng.random())


class _ItemCatalog:
    """Items with genres and within-genre Zipf popularity.

    :meth:`sample_item` makes the draw ``Generator.choice(members, p=...)``
    would make, from a CDF built once per ``(genre, avoid)`` the walk reaches.
    """

    def __init__(self, config: SyntheticConfig, rng: np.random.Generator) -> None:
        self.primary_genre = rng.integers(0, config.num_genres, size=config.num_items)
        # Guarantee each genre has at least one item.
        for genre in range(config.num_genres):
            if not np.any(self.primary_genre == genre):
                self.primary_genre[rng.integers(0, config.num_items)] = genre
        self.secondary_genre = np.full(config.num_items, -1, dtype=np.int64)
        second = rng.random(config.num_items) < config.multi_genre_probability
        # -1 or +1, as choice([-1, 1], size=n) draws them: integers(0, 2, size=n).
        step = 2 * rng.integers(0, 2, size=config.num_items) - 1
        neighbour = (self.primary_genre + step) % config.num_genres
        self.secondary_genre[second] = neighbour[second]

        # Within-genre Zipf popularity.
        self.popularity = np.zeros(config.num_items, dtype=np.float64)
        for genre in range(config.num_genres):
            members = np.flatnonzero(self.primary_genre == genre)
            ranks = rng.permutation(len(members)) + 1
            self.popularity[members] = 1.0 / ranks**config.popularity_exponent
        if not np.isfinite(self.popularity).all():
            raise ConfigurationError(
                f"popularity_exponent {config.popularity_exponent} overflows the Zipf weights"
            )

        self.items_by_genre = [
            np.flatnonzero(
                (self.primary_genre == genre) | (self.secondary_genre == genre)
            )
            for genre in range(config.num_genres)
        ]
        self._member_lists = [members.tolist() for members in self.items_by_genre]
        self._positions = [
            {item: position for position, item in enumerate(members)}
            for members in self._member_lists
        ]
        #: per genre, ``avoid`` -> the item CDF (``None``: no weight left),
        #: built on first use
        self._cdfs: list[dict[int | None, memoryview | None]] = [
            {} for _ in range(config.num_genres)
        ]

    def _item_cdf(self, genre: int, avoid: int | None) -> "memoryview | None":
        """The CDF of ``choice(members, p=weights / total)``, or ``None`` when
        no weight is left: the draw is then ``integers(0, len(members))``, as
        ``choice`` without ``p`` makes it."""
        weights = self.popularity[self.items_by_genre[genre]]
        if avoid is not None:
            weights[self._positions[genre][avoid]] = 0.0
        total = weights.sum()
        if total <= 0:
            return None
        return _choice_cdf(weights / total)

    def sample_item(self, genre: int, rng: np.random.Generator, avoid: int | None) -> int:
        cdfs = self._cdfs[genre]
        if avoid not in cdfs:
            # An item outside the genre masks nothing: it shares the unmasked CDF.
            masked = avoid if avoid in self._positions[genre] else None
            if masked not in cdfs:
                cdfs[masked] = self._item_cdf(genre, masked)
            cdfs[avoid] = cdfs[masked]
        cdf = cdfs[avoid]
        members = self._member_lists[genre]
        if cdf is None:
            return members[rng.integers(0, len(members))]
        return members[_draw(cdf, rng)]

    def genres_of(self, item: int, names: list[str]) -> tuple[str, ...]:
        genres = [names[self.primary_genre[item]]]
        if self.secondary_genre[item] >= 0:
            genres.append(names[self.secondary_genre[item]])
        return tuple(dict.fromkeys(genres))


def _genre_transition_matrix(config: SyntheticConfig) -> np.ndarray:
    """Ring-structured genre transition matrix (rows sum to 1).

    A single-genre ring can only stay: its matrix is ``[[1.0]]``.
    """
    n = config.num_genres
    if n == 1:
        return np.ones((1, 1), dtype=np.float64)
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


def generate_synthetic_dataset(config: SyntheticConfig) -> InteractionDataset:
    """Generate an :class:`InteractionDataset` according to ``config``.

    Every draw is the one ``Generator.choice`` would make, in the same order,
    so a seed gives the same corpus it always gave; the item and genre CDFs
    are built once instead of per draw.
    """
    rng = as_rng(config.seed)
    catalog = _ItemCatalog(config, rng)
    transition_cdfs = [_choice_cdf(row) for row in _genre_transition_matrix(config)]
    item_ids = [f"i{item:05d}" for item in range(config.num_items)]
    timestamps = [float(step) for step in range(config.max_sequence_length)]

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
        snap_back_probability = config.home_return_probability * (1.0 - impressionability)
        genre = home_genres[rng.integers(0, num_home)]
        previous_item: int | None = None
        for step in range(length):
            item = catalog.sample_item(genre, rng, avoid=previous_item)
            interactions.append(
                Interaction(
                    user=user_id, item=item_ids[item], timestamp=timestamps[step], rating=1.0
                )
            )
            previous_item = item
            # Next genre: conservative users snap back to a home genre,
            # impressionable users follow the genre Markov chain.
            if rng.random() < snap_back_probability:
                genre = home_genres[rng.integers(0, num_home)]
            else:
                genre = _draw(transition_cdfs[genre], rng)

    item_genres = {
        item_id: catalog.genres_of(item, config.genre_names)
        for item, item_id in enumerate(item_ids)
    }
    return InteractionDataset(
        name=config.name,
        interactions=interactions,
        item_genres=item_genres,
        user_traits=user_traits,
    )
