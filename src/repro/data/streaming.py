"""Streaming synthetic corpora for large-catalogue runs.

:func:`repro.data.synthetic.generate_synthetic_dataset` builds one Python
:class:`Interaction` object per event — pleasant at 10^4 events, unusable at
10^7.  The streaming generator here draws whole *user chunks* of events with
vectorised numpy and never holds more than one chunk in memory, so a
10^6-item corpus streams straight into a memory-mapped
:class:`~repro.data.store.InteractionStore`.

The generative model mirrors the spirit of the eager synthetic dataset:
items are partitioned into genres (contiguous index blocks), each user has
a home genre and walks a genre ring with a configurable switch probability,
and within-genre item choice follows a Zipf popularity law.  Everything is
driven by one seeded :class:`numpy.random.Generator`, so a given config
always produces the same corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.store import InteractionStore
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "StreamingSyntheticConfig",
    "iter_streaming_sequences",
    "build_streaming_store",
]


@dataclass(frozen=True)
class StreamingSyntheticConfig:
    """Knobs for the vectorised streaming synthetic corpus."""

    num_items: int = 100_000
    num_users: int = 2_000
    num_genres: int = 64
    min_events: int = 16
    max_events: int = 48
    zipf_exponent: float = 1.1
    genre_switch_prob: float = 0.2
    seed: int = 0
    chunk_users: int = 512

    def __post_init__(self) -> None:
        if self.num_items < 1 or self.num_users < 1:
            raise ConfigurationError("num_items and num_users must be >= 1")
        if not 1 <= self.num_genres:
            raise ConfigurationError("num_genres must be >= 1")
        if not 1 <= self.min_events <= self.max_events:
            raise ConfigurationError("need 1 <= min_events <= max_events")
        if not 0.0 <= self.genre_switch_prob <= 1.0:
            raise ConfigurationError("genre_switch_prob must be in [0, 1]")
        if self.chunk_users < 1:
            raise ConfigurationError("chunk_users must be >= 1")

    @property
    def vocab_size(self) -> int:
        """Vocabulary size including the padding slot at index 0."""
        return self.num_items + 1


def _genre_tables(config: StreamingSyntheticConfig) -> "tuple[np.ndarray, list[np.ndarray]]":
    """Per-genre item block starts and within-genre Zipf CDFs."""
    genres = min(config.num_genres, config.num_items)
    bounds = np.linspace(1, config.num_items + 1, genres + 1).astype(np.int64)
    cdfs: "list[np.ndarray]" = []
    for g in range(genres):
        block = int(bounds[g + 1] - bounds[g])
        weights = 1.0 / np.arange(1, block + 1, dtype=np.float64) ** config.zipf_exponent
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        cdfs.append(cdf)
    return bounds, cdfs


def iter_streaming_sequences(
    config: StreamingSyntheticConfig,
) -> "Iterator[np.ndarray]":
    """Yield one ``int64`` item sequence per user, chunk-vectorised."""
    rng = np.random.default_rng(config.seed)
    bounds, cdfs = _genre_tables(config)
    genres = len(cdfs)
    switch = config.genre_switch_prob
    for chunk_start in range(0, config.num_users, config.chunk_users):
        users = min(config.chunk_users, config.num_users - chunk_start)
        lengths = rng.integers(config.min_events, config.max_events + 1, users)
        total = int(lengths.sum())
        homes = rng.integers(0, genres, users)

        # Genre ring walk, vectorised across the whole chunk: per-event
        # steps in {-1, 0, +1}, cumulated per user by subtracting each
        # user's pre-walk offset from the global running sum.
        draws = rng.random(total)
        steps = (draws < switch / 2).astype(np.int64) - (draws > 1 - switch / 2)
        running = np.cumsum(steps)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        offsets = np.repeat(running[starts] - steps[starts], lengths)
        walk = running - offsets
        genre_per_event = (np.repeat(homes, lengths) + walk) % genres

        # Within-genre Zipf draw via inverse-CDF, grouped by genre.
        uniform = rng.random(total)
        items = np.empty(total, dtype=np.int64)
        for g in range(genres):
            mask = genre_per_event == g
            if not mask.any():
                continue
            ranks = np.searchsorted(cdfs[g], uniform[mask], side="left")
            items[mask] = bounds[g] + ranks

        for user in range(users):
            yield items[starts[user] : ends[user]]


def build_streaming_store(
    config: StreamingSyntheticConfig, path: str, name: str = "scale-synthetic"
) -> InteractionStore:
    """Stream a synthetic corpus straight into a memmap store at ``path``."""
    return InteractionStore.write(
        path,
        iter_streaming_sequences(config),
        vocab_size=config.vocab_size,
        name=name,
    )
