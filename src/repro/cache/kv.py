"""Per-layer key/value state for incremental transformer decoding.

A :class:`LayerKVCache` stores the attention keys/values one layer of the
compiled inference program (:func:`repro.nn.inference.block`) has already
projected for a batch of growing sequences, so a later step only has to
project the newly appended token(s) and attend over the cached prefix
(``prefix_kv`` — the arena views are read in place, never copied next to the
new keys).  A :class:`DecodingState` stacks one cache per layer and keeps
the per-row bookkeeping aligned when beam search prunes, reorders or
duplicates hypotheses.  It is the **cross-depth** cache of the incremental
regime and of nothing else: K/V that live for a single depth (the shared
regime below) are plain arrays that never enter an arena.

Storage model
-------------
Keys/values live in preallocated **arenas** of shape
``(batch, heads, capacity, d_head)``.  :meth:`LayerKVCache.extend` writes the
newly projected columns into the arena in place and returns *views* of the
used prefix, so a decode step copies only the appended slice — never the
prefix.  When the arena fills, capacity grows geometrically (doubling), so
total copying over a T-token decode is O(T) instead of the O(T²) a
per-token ``np.concatenate`` pays.  ``growth="exact"`` keeps the legacy
exact-size behaviour (reallocate to the needed width every extend) as the
fallback path; even there the old concatenate temporaries are gone — the
prefix is copied at most once per extend, directly into the new buffer.
Transient columns (``persist`` < new) occupy arena slots past the persisted
length and are simply overwritten by the next extend; they are never
retained or re-copied.  (The IRN scorers hand ``extend`` only the columns
they keep — a step's transient objective column attends as the call's own
K/V and never touches the arena.)  Row gathers (:meth:`LayerKVCache.reorder`) move the
used region into a spare arena with :func:`np.take` and swap buffers — no
per-call temporaries once the spare exists.

Module-level allocation counters (:func:`allocation_stats`) track arena
allocations, bytes actually copied, and the bytes an equivalent
concatenate-per-extend implementation would have copied;
``tests/cache/test_kv_cache.py`` reads them and fails when a decode step
copies the full prefix.

Exactness contract
------------------
Cached keys/values are *projections of that layer's past inputs*.  Keeping
them **across decoding depths** is exact only while those inputs cannot
change when the sequence grows:

* **Causal masks, any depth** — position ``j`` never attends to positions
  ``> j``, so appending a token leaves every prefix hidden state (and hence
  every layer's prefix K/V) untouched.
* **Single-layer stacks, any additive mask** — layer 1's K/V are projections
  of the raw input embeddings, which are fixed per position regardless of
  what the mask reveals.

The paper's PIM breaks the first condition for deeper stacks: every prefix
position attends to the objective item, and the objective's *position
embedding moves* every time the path grows, so prefix hidden states at
layers ``>= 2`` change at every decoding step.  What stays exact there is
sharing **within one depth**: the rows of one root (the beam hypotheses of
one planning context) carry the same history, objective, user and length,
and their history states cannot see what each row appended, so a root's
history K/V are projected once per depth (the first layer's once per
session: they are projections of the fixed input embeddings), gathered
root → row as plain arrays, and each row attends over them followed by its
own appended tokens.  Nothing a row appended outlives the depth, so nothing
is staged in an arena: this regime does not touch a :class:`LayerKVCache`.
Once a row outgrows the model's window the batch slides and nothing is
shared: every row re-encodes its own window.  Callers (see
:meth:`repro.core.irn.IRN.advance_decoding_session`) pick the regime from
the mask type, the layer count and the grown lengths; the cache itself is
policy-free.  In all three the final layer projects
K/V for every column and answers a single query.

Caches are inference-only: they hold raw ``numpy`` arrays detached from the
autograd graph.  Storage precision is the ``dtype`` the cache was built with
(an IRN session passes its program's), else that of the first keys extended.
"""

from __future__ import annotations

import numpy as np

from repro.obs.registry import MetricGroup, get_registry
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "LayerKVCache",
    "DecodingState",
    "GROWTH_MODES",
    "allocation_stats",
    "reset_allocation_stats",
]

#: Arena growth policies: ``geometric`` doubles capacity when full (amortized
#: O(T) copying); ``exact`` reallocates to exactly the needed width every
#: extend (the legacy fallback — still concatenate-free, copies capped to
#: prefix + appended slice with no temporaries or transient-column retention).
GROWTH_MODES = ("geometric", "exact")

#: Smallest arena capacity (columns) allocated under geometric growth.
MIN_CAPACITY = 8

# ---------------------------------------------------------------------- #
# Allocation accounting (read by tests/cache/test_kv_cache.py)
# ---------------------------------------------------------------------- #

# The counters live in the process-wide metrics registry at the fixed scope
# ``cache.kv`` (allocation is a module-wide property, not per-cache), so a
# snapshot is one registry-lock read and the same counters surface in
# ``repro-irs metrics`` exports.
_STATS = MetricGroup(
    get_registry(),
    "cache.kv",
    counters=(
        "extend_calls",
        "arena_allocated_bytes",  # bytes of fresh arena (and spare) buffers
        "copied_bytes",  # bytes actually moved (appended slices + growth copies)
        "concat_equivalent_bytes",  # bytes a concatenate-per-extend would move
    ),
)


def reset_allocation_stats() -> None:
    """Zero the module-wide K/V allocation counters."""
    _STATS.reset()


def allocation_stats() -> dict:
    """Snapshot of the module-wide K/V allocation counters.

    ``copied_bytes`` counts bytes physically copied by all caches since the
    last reset (appended K/V slices, plus prefix moves on arena growth);
    ``concat_equivalent_bytes`` counts what the pre-arena implementation —
    ``np.concatenate([prefix, new])`` per extend — would have copied for the
    same call sequence.  Their ratio is the decode-step allocation win and
    backs the ``no_prefix_copy`` contract bit.  The snapshot is a single
    atomic registry read — all four counters come from one lock acquisition.
    """
    return _STATS.values()


def _record(extend_calls: int = 0, arena: int = 0, copied: int = 0, concat: int = 0) -> None:
    _STATS.record(
        add={
            "extend_calls": extend_calls,
            "arena_allocated_bytes": arena,
            "copied_bytes": copied,
            "concat_equivalent_bytes": concat,
        }
    )


class LayerKVCache:
    """Cached attention keys/values of one layer, shape ``(batch, heads, len, d_head)``.

    ``dtype`` fixes the storage precision (default: that of the keys the
    first extend brings).
    ``growth`` picks the arena policy (see :data:`GROWTH_MODES`).
    """

    def __init__(
        self,
        dtype: "np.dtype | str | None" = None,
        growth: str = "geometric",
    ) -> None:
        if growth not in GROWTH_MODES:
            raise ConfigurationError(
                f"growth must be one of {GROWTH_MODES}, got {growth!r}"
            )
        self._requested_dtype = None if dtype is None else np.dtype(dtype)
        self._growth = growth
        self._key_buf: np.ndarray | None = None
        self._value_buf: np.ndarray | None = None
        self._key_spare: np.ndarray | None = None
        self._value_spare: np.ndarray | None = None
        self._length = 0

    # ------------------------------------------------------------------ #
    @property
    def keys(self) -> np.ndarray | None:
        """View of the cached key columns (``None`` when empty)."""
        if self._key_buf is None:
            return None
        return self._key_buf[:, :, : self._length]

    @property
    def values(self) -> np.ndarray | None:
        """View of the cached value columns (``None`` when empty)."""
        if self._value_buf is None:
            return None
        return self._value_buf[:, :, : self._length]

    @property
    def length(self) -> int:
        """Number of cached key/value positions (0 when empty)."""
        return self._length

    @property
    def batch_size(self) -> int | None:
        """Number of cached rows, or ``None`` when the cache is empty."""
        return None if self._key_buf is None else int(self._key_buf.shape[0])

    @property
    def dtype(self) -> np.dtype | None:
        """Storage dtype, or ``None`` before the first extend resolves it."""
        if self._key_buf is not None:
            return self._key_buf.dtype
        return self._requested_dtype

    @property
    def capacity(self) -> int:
        """Allocated arena columns (>= :attr:`length`)."""
        return 0 if self._key_buf is None else int(self._key_buf.shape[2])

    # ------------------------------------------------------------------ #
    def _target_capacity(self, needed: int) -> int:
        if self._growth == "exact":
            return needed
        capacity = max(MIN_CAPACITY, self.capacity)
        while capacity < needed:
            capacity *= 2
        return capacity

    def _ensure_capacity(
        self, batch: int, heads: int, d_head: int, needed: int, default: np.dtype
    ) -> None:
        """Grow (or allocate) the arenas so ``needed`` columns fit."""
        if self._key_buf is not None and self.capacity >= needed:
            return
        dtype = self.dtype if self.dtype is not None else default
        capacity = self._target_capacity(needed)
        shape = (batch, heads, capacity, d_head)
        key_buf = np.empty(shape, dtype=dtype)
        value_buf = np.empty(shape, dtype=dtype)
        copied = 0
        if self._length:
            key_buf[:, :, : self._length] = self._key_buf[:, :, : self._length]
            value_buf[:, :, : self._length] = self._value_buf[:, :, : self._length]
            copied = 2 * self._length * batch * heads * d_head * dtype.itemsize
        self._key_buf, self._value_buf = key_buf, value_buf
        # Spares are tied to the old capacity; drop them and re-allocate lazily.
        self._key_spare = self._value_spare = None
        _record(arena=key_buf.nbytes + value_buf.nbytes, copied=copied)

    def extend(
        self, keys: np.ndarray, values: np.ndarray, persist: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Append newly projected K/V and return the full arrays to attend over.

        ``keys``/``values`` are ``(batch, heads, new, d_head)`` arrays for the
        newly processed positions.  Only the first ``persist`` new positions
        are retained in the cache (default: all of them); the rest are
        *transient* — they participate in this forward pass (e.g. the
        objective item, whose position embedding changes every step and must
        be re-projected each call) but are not part of the growing prefix:
        their arena slots are overwritten by the next extend.

        The returned arrays are **views into the arena**, valid until the
        next ``extend``/``reorder`` on this cache.
        """
        if keys.shape != values.shape:
            raise ConfigurationError(
                f"key/value shapes disagree: {keys.shape} vs {values.shape}"
            )
        batch, heads, new, d_head = keys.shape
        persist = new if persist is None else int(persist)
        if not 0 <= persist <= new:
            raise ConfigurationError(
                f"persist must be in [0, {new}], got {persist}"
            )
        if self._key_buf is not None and self._key_buf.shape[0] != batch:
            raise ConfigurationError(
                f"cache holds {self._key_buf.shape[0]} rows but got {batch}; "
                "reorder() the cache before extending with a different batch"
            )
        self._ensure_capacity(batch, heads, d_head, self._length + new, keys.dtype)
        start, stop = self._length, self._length + new
        self._key_buf[:, :, start:stop] = keys
        self._value_buf[:, :, start:stop] = values
        full_keys = self._key_buf[:, :, :stop]
        full_values = self._value_buf[:, :, :stop]
        itemsize = self._key_buf.dtype.itemsize
        row = batch * heads * d_head * itemsize
        _record(
            extend_calls=1,
            copied=2 * new * row,
            concat=2 * stop * row,
        )
        self._length += persist
        return full_keys, full_values

    def reorder(self, rows: np.ndarray) -> None:
        """Re-index the batch dimension (prune / duplicate / permute rows).

        Gathers the used arena region into a spare arena with
        :func:`np.take` and swaps buffers — after warm-up (steady batch
        size) no allocation happens at all.
        """
        if self._key_buf is None:
            return
        rows = np.asarray(rows, dtype=np.int64)
        _, heads, capacity, d_head = self._key_buf.shape
        shape = (int(rows.shape[0]), heads, capacity, d_head)
        if self._key_spare is None or self._key_spare.shape != shape:
            self._key_spare = np.empty(shape, dtype=self._key_buf.dtype)
            self._value_spare = np.empty(shape, dtype=self._value_buf.dtype)
            _record(arena=self._key_spare.nbytes + self._value_spare.nbytes)
        used = slice(None), slice(None), slice(0, self._length)
        np.take(self._key_buf[used], rows, axis=0, out=self._key_spare[used])
        np.take(self._value_buf[used], rows, axis=0, out=self._value_spare[used])
        self._key_buf, self._key_spare = self._key_spare, self._key_buf
        self._value_buf, self._value_spare = self._value_spare, self._value_buf
        if self._key_spare.shape != self._key_buf.shape:
            # Batch size changed: the old buffers can't serve as spares.
            self._key_spare = self._value_spare = None


class DecodingState:
    """A stack of per-layer :class:`LayerKVCache`, one per encoder layer.

    ``dtype``/``growth`` are forwarded to every layer cache.
    """

    def __init__(
        self,
        num_layers: int,
        dtype: "np.dtype | str | None" = None,
        growth: str = "geometric",
    ) -> None:
        if num_layers <= 0:
            raise ConfigurationError(f"num_layers must be positive, got {num_layers}")
        self.layers = [LayerKVCache(dtype=dtype, growth=growth) for _ in range(num_layers)]

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    @property
    def length(self) -> int:
        """Cached prefix length (all layers stay in lockstep)."""
        return self.layers[0].length

    @property
    def batch_size(self) -> int | None:
        return self.layers[0].batch_size

    def reorder(self, rows: np.ndarray) -> None:
        """Re-index every layer's cache rows (beam pruning / re-ranking)."""
        for layer in self.layers:
            layer.reorder(rows)
