"""Building the candidate generator a retrieval spec names.

``--retrieval`` on ``repro-irs serve-sim`` speaks short names: ``none`` (exact planning, the default),
``full`` (full-vocabulary candidate sets — the parity oracle), ``ann``
and ``cooccurrence``.  The spec and shortlist-size knobs are rows of the
declarative resolver table in :mod:`repro.config`;
:func:`make_generator` instantiates through the registry.
"""

from __future__ import annotations

from repro.config import resolve_retrieval_spec
from repro.retrieval.base import CandidateGenerator, retrieval_registry

__all__ = ["make_generator"]


def make_generator(
    spec: "str | None", num_candidates: int = 256, **kwargs
) -> "CandidateGenerator | None":
    """Build the generator for ``spec`` (``None``/``"none"`` -> no pruning)."""
    spec = resolve_retrieval_spec(spec)
    if spec == "none":
        return None
    return retrieval_registry.create(spec, num_candidates=num_candidates, **kwargs)
