"""The corpus profiles the serving commands run on, and their machine block.

``--profile fast`` is seconds-scale: the synthetic corpus of the tier-1
suite's tiny split (``tests/conftest.py``) under a 1-layer model.
``default`` is a larger corpus, a 2-layer model and longer paths
(``benchmarks/e2e/workloads.py`` copies its constants).  The parser
validates ``--profile``, so every name reaching :func:`profile_config` is
one of :data:`PROFILES`.
"""

from __future__ import annotations

import os
import platform
import sys

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

from repro.data.preprocessing import build_corpus
from repro.data.splitting import DatasetSplit, split_corpus
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset

__all__ = ["PROFILES", "profile_config", "build_bench_split", "machine_info", "peak_rss_kb"]


def _fast() -> dict:
    return {
        "synthetic": dict(
            name="perf-smoke",
            num_users=40,
            num_items=60,
            num_genres=6,
            min_sequence_length=14,
            max_sequence_length=28,
            seed=0,
        ),
        "irn": dict(
            embedding_dim=16,
            user_dim=4,
            num_heads=2,
            num_layers=1,
            epochs=1,
            batch_size=32,
            max_sequence_length=20,
            seed=0,
        ),
        "beam_width": 4,
        "branch_factor": 4,
        "max_path_length": 8,
        "num_instances": 8,
        "serve_requests_per_context": 3,
    }


def _default() -> dict:
    return {
        **_fast(),
        "synthetic": dict(
            name="perf-synthetic", num_users=120, num_items=240, num_genres=8, seed=0
        ),
        "irn": dict(
            embedding_dim=32,
            user_dim=8,
            num_heads=2,
            num_layers=2,
            epochs=2,
            batch_size=64,
            max_sequence_length=50,
            seed=0,
        ),
        "max_path_length": 12,
        "num_instances": 24,
        "serve_requests_per_context": 4,
    }


_PROFILES = {"fast": _fast, "default": _default}
PROFILES = tuple(_PROFILES)


def profile_config(profile: str) -> dict:
    """A fresh config dict for ``profile`` (``fast`` or ``default``)."""
    return _PROFILES[profile]()


def build_bench_split(config: dict) -> DatasetSplit:
    """Generate the synthetic corpus and split of a profile."""
    dataset = generate_synthetic_dataset(SyntheticConfig(**config["synthetic"]))
    corpus = build_corpus(dataset, min_interactions=3)
    return split_corpus(corpus, l_min=6, l_max=14, validation_fraction=0.1, seed=0)


def peak_rss_kb() -> "int | None":
    """Peak resident set size of this process in KB (``None`` off-POSIX);
    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS."""
    if resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        peak //= 1024
    return int(peak)


def machine_info() -> dict:
    """CPU count, platform and peak RSS of the machine behind a report."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "peak_rss_kb": peak_rss_kb(),
    }
