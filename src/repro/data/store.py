"""Chunked, memory-mapped interaction storage for scale-tier corpora.

:class:`SequenceCorpus` materialises every sequence as a Python list —
fine at ``V = 217``, hopeless at ``V = 10**6``.  :class:`InteractionStore`
keeps the event log in two flat files under one directory:

* ``items.bin`` — every user's items back to back (``int32`` memmap)
* ``indptr.bin`` — per-user offsets into ``items.bin`` (``int64``,
  ``num_users + 1`` entries)
* ``meta.json`` — name, vocab size, dtype, counts

Sequences are written from any (possibly generator-backed) iterable in
bounded chunks, so a corpus far larger than RAM is buildable; reads are
zero-copy memmap slices.  :meth:`InteractionStore.as_corpus` exposes the
store through the corpus duck type (``vocab.size`` + ``user_sequences``)
that the embedding fitters and candidate generators consume, with a
dict-free :class:`~repro.data.vocab.RangeVocabulary`.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.vocab import RangeVocabulary
from repro.utils.exceptions import DataError

__all__ = ["InteractionStore", "StoredCorpus"]

_ITEMS_FILE = "items.bin"
_INDPTR_FILE = "indptr.bin"
_META_FILE = "meta.json"

# Events buffered in memory before flushing to disk during a write.
_WRITE_CHUNK_EVENTS = 1 << 20


class InteractionStore:
    """A directory-backed, memory-mapped per-user event log."""

    def __init__(
        self,
        path: str,
        items: np.ndarray,
        indptr: np.ndarray,
        vocab_size: int,
        name: str,
    ) -> None:
        self.path = path
        self._items = items
        self._indptr = indptr
        self._vocab_size = int(vocab_size)
        self.name = name

    # -- construction ------------------------------------------------------

    @classmethod
    def write(
        cls,
        path: str,
        sequences: "Iterable[Sequence[int] | np.ndarray]",
        vocab_size: int,
        name: str = "interactions",
        dtype: np.dtype = np.int32,
    ) -> "InteractionStore":
        """Stream ``sequences`` into a new store directory and open it.

        Items must lie in ``[1, vocab_size)``; validation is vectorised per
        flush chunk so generator inputs never materialise in full.
        """
        if vocab_size < 2:
            raise DataError(f"vocab_size must be >= 2, got {vocab_size}")
        os.makedirs(path, exist_ok=True)
        indptr: "list[int]" = [0]
        buffered: "list[np.ndarray]" = []
        buffered_events = 0
        total = 0
        with open(os.path.join(path, _ITEMS_FILE), "wb") as handle:

            def flush() -> None:
                nonlocal buffered, buffered_events
                if not buffered:
                    return
                chunk = np.concatenate(buffered).astype(dtype, copy=False)
                if chunk.size and (chunk.min() < 1 or chunk.max() >= vocab_size):
                    raise DataError(
                        f"store '{name}': items must be in [1, {vocab_size})"
                    )
                handle.write(chunk.tobytes())
                buffered, buffered_events = [], 0

            for sequence in sequences:
                array = np.asarray(sequence, dtype=np.int64)
                if array.ndim != 1:
                    raise DataError("each sequence must be one-dimensional")
                total += int(array.size)
                indptr.append(total)
                if array.size:
                    buffered.append(array)
                    buffered_events += int(array.size)
                if buffered_events >= _WRITE_CHUNK_EVENTS:
                    flush()
            flush()
        np.asarray(indptr, dtype=np.int64).tofile(os.path.join(path, _INDPTR_FILE))
        meta = {
            "name": name,
            "vocab_size": int(vocab_size),
            "num_users": len(indptr) - 1,
            "num_events": total,
            "dtype": np.dtype(dtype).name,
        }
        with open(os.path.join(path, _META_FILE), "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2)
        return cls.open(path)

    @classmethod
    def open(cls, path: str) -> "InteractionStore":
        meta_path = os.path.join(path, _META_FILE)
        if not os.path.exists(meta_path):
            raise DataError(f"no interaction store at '{path}'")
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        indptr = np.fromfile(os.path.join(path, _INDPTR_FILE), dtype=np.int64)
        if indptr.size != meta["num_users"] + 1:
            raise DataError(f"store '{path}': indptr length mismatch")
        dtype = np.dtype(meta["dtype"])
        items_path = os.path.join(path, _ITEMS_FILE)
        if meta["num_events"]:
            items = np.memmap(items_path, dtype=dtype, mode="r", shape=(meta["num_events"],))
        else:
            items = np.empty(0, dtype=dtype)
        return cls(
            path=path,
            items=items,
            indptr=indptr,
            vocab_size=meta["vocab_size"],
            name=meta["name"],
        )

    # -- reads -------------------------------------------------------------

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    @property
    def num_users(self) -> int:
        return self._indptr.size - 1

    @property
    def num_events(self) -> int:
        return int(self._indptr[-1])

    def sequence(self, user_position: int) -> np.ndarray:
        """Zero-copy memmap view of one user's item sequence."""
        if not 0 <= user_position < self.num_users:
            raise DataError(
                f"user position {user_position} out of range ({self.num_users} users)"
            )
        lo, hi = self._indptr[user_position], self._indptr[user_position + 1]
        return self._items[lo:hi]

    def iter_sequences(self) -> "Iterator[np.ndarray]":
        for position in range(self.num_users):
            yield self.sequence(position)

    def item_popularity(self) -> np.ndarray:
        """Interaction counts per item index, computed in bounded chunks."""
        counts = np.zeros(self._vocab_size, dtype=np.int64)
        items = self._items
        for start in range(0, items.size, _WRITE_CHUNK_EVENTS):
            chunk = np.asarray(items[start : start + _WRITE_CHUNK_EVENTS])
            counts += np.bincount(chunk, minlength=self._vocab_size)
        return counts

    def as_corpus(self) -> "StoredCorpus":
        return StoredCorpus(self)


class _SequenceView:
    """Lazy list-like over a store's per-user memmap slices."""

    __slots__ = ("_store",)

    def __init__(self, store: InteractionStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return self._store.num_users

    def __getitem__(self, position: int) -> np.ndarray:
        return self._store.sequence(position)

    def __iter__(self) -> "Iterator[np.ndarray]":
        return self._store.iter_sequences()


class StoredCorpus:
    """Corpus facade over an :class:`InteractionStore`.

    Quacks like :class:`~repro.data.interactions.SequenceCorpus` for the
    consumers that only need ``vocab.size``, ``user_sequences``,
    ``user_ids`` and ``item_popularity`` — embedding fitters, candidate
    generators and large-catalogue planning — without materialising anything.
    """

    def __init__(self, store: InteractionStore) -> None:
        self.store = store
        self.name = store.name
        self.vocab = RangeVocabulary(store.vocab_size - 1)
        self.user_sequences = _SequenceView(store)

    @property
    def user_ids(self) -> range:
        return range(self.store.num_users)

    @property
    def num_users(self) -> int:
        return self.store.num_users

    def item_popularity(self) -> np.ndarray:
        return self.store.item_popularity()
