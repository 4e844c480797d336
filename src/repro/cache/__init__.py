"""Inference caching: incremental decoding state + cross-call plan memoisation.

Two layers; :mod:`repro.perf.bench` counts the token-work and cache hits
they save and checks both plan bit-identically to the uncached planner:

* :mod:`repro.cache.kv` — per-layer key/value caches
  (:class:`LayerKVCache`, :class:`DecodingState`) so a transformer forward
  can encode only newly appended tokens while attending over the cached
  prefix, plus the exactness contract that says what may be kept across
  decoding depths and what only shared within one.
* :mod:`repro.cache.memo` — a bounded LRU (:class:`PlanCache`) memoising
  planned influence paths across ``next_step`` replanning calls.

:mod:`repro.cache.session` carries the batch bookkeeping between the two
(:class:`DecodingSession`), and :mod:`repro.cache.stats` counts token-work
(:class:`DecodeStats`).
"""

from repro.cache.kv import DecodingState, LayerKVCache
from repro.cache.memo import PlanCache
from repro.cache.session import DecodingSession
from repro.cache.stats import DecodeStats

__all__ = [
    "LayerKVCache",
    "DecodingState",
    "PlanCache",
    "DecodingSession",
    "DecodeStats",
]
