"""Common interface and training loop for sequential recommenders."""

from __future__ import annotations

import abc
import ctypes
import time
from typing import Sequence

import numpy as np

from repro.data.batching import SequenceBatch, iterate_batches
from repro.data.interactions import SequenceCorpus
from repro.data.padding import PAD_INDEX
from repro.data.splitting import DatasetSplit
from repro.nn.layers import Module
from repro.nn.optim import Adam, ReduceLROnPlateau, clip_grad_norm
from repro.nn.tensor import Tensor, no_grad
from repro.utils.batch import broadcast_user_indices, check_batch_lengths
from repro.utils.exceptions import NotFittedError
from repro.utils.logging import get_logger
from repro.utils.registry import Registry
from repro.utils.rng import as_rng

__all__ = ["SequentialRecommender", "NeuralSequentialRecommender", "model_registry"]

_LOGGER = get_logger("models")

#: glibc's ``mallopt`` parameters (``malloc.h``) and the values a fit sets: the
#: mmap threshold at glibc's own dynamic ceiling, so a step's arrays come from
#: the heap, and a trim threshold above what a step frees, so the heap is not
#: handed back at the end of one step only to be faulted in again by the next
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRAINING_HEAP_POLICY = {_M_MMAP_THRESHOLD: 32 << 20, _M_TRIM_THRESHOLD: 128 << 20}
#: the argument types of the glibc allocator functions a fit calls (both return ``int``)
_ALLOCATOR_ARGTYPES = {"mallopt": [ctypes.c_int, ctypes.c_int], "malloc_trim": [ctypes.c_size_t]}


def _libc_call(name: str, *args: int) -> None:
    """Call glibc's allocator function ``name``; nothing where there is none (not glibc)."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError):
        return
    function.argtypes, function.restype = _ALLOCATOR_ARGTYPES[name], ctypes.c_int
    function(*args)


#: Registry mapping lower-case model names (``"sasrec"``, ``"pop"``, ...) to classes.
model_registry: Registry["SequentialRecommender"] = Registry("recommender model")


class SequentialRecommender(abc.ABC):
    """Interface shared by every next-item recommender in the package.

    A fitted model scores every item in the vocabulary given a user's item
    history; the padding index always receives ``-inf``.  Higher score means
    "more likely to be consumed next".
    """

    #: short human-readable name used in result tables
    name: str = "base"

    def __init__(self) -> None:
        self.corpus: SequenceCorpus | None = None

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def fit(self, split: DatasetSplit) -> "SequentialRecommender":
        """Train on the training sub-sequences of ``split``."""

    @abc.abstractmethod
    def score_next(self, history: Sequence[int], user_index: int | None = None) -> np.ndarray:
        """Return a score for every vocabulary index given ``history``."""

    def score_next_batch(
        self,
        histories: Sequence[Sequence[int]],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> np.ndarray:
        """Score many histories at once, returning a ``(batch, vocab)`` array.

        The default implementation loops :meth:`score_next`; models with a
        batched forward (IRN) override it to fuse the whole batch into one
        network call.
        """
        users = broadcast_user_indices(len(histories), user_indices)
        if not histories:
            return np.zeros((0, self.vocab_size), dtype=np.float64)
        return np.stack(
            [
                np.asarray(self.score_next(history, user), dtype=np.float64)
                for history, user in zip(histories, users)
            ]
        )

    # ------------------------------------------------------------------ #
    def _require_fitted(self) -> SequenceCorpus:
        if self.corpus is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self.corpus

    @property
    def vocab_size(self) -> int:
        """Size of the item vocabulary (including padding index 0)."""
        return self._require_fitted().vocab.size

    def probabilities(
        self, history: Sequence[int], user_index: int | None = None
    ) -> np.ndarray:
        """Softmax-normalised next-item distribution (padding has probability 0)."""
        scores = np.asarray(self.score_next(history, user_index), dtype=np.float64).copy()
        scores[PAD_INDEX] = -np.inf
        shifted = scores - np.max(scores[np.isfinite(scores)])
        exp = np.where(np.isfinite(shifted), np.exp(shifted), 0.0)
        total = exp.sum()
        return exp / total if total > 0 else np.full_like(exp, 1.0 / max(len(exp) - 1, 1))

    def log_probability(
        self, history: Sequence[int], item: int, user_index: int | None = None
    ) -> float:
        """``log P(item | history)`` under the model's softmax distribution."""
        probs = self.probabilities(history, user_index)
        return float(np.log(max(probs[item], 1e-12)))

    def rank_of(
        self, history: Sequence[int], item: int, user_index: int | None = None
    ) -> int:
        """1-based rank of ``item`` among all items (1 = top recommendation)."""
        scores = np.asarray(self.score_next(history, user_index), dtype=np.float64).copy()
        scores[PAD_INDEX] = -np.inf
        target = scores[item]
        return int(np.sum(scores > target)) + 1

    def rank_of_batch(
        self,
        histories: Sequence[Sequence[int]],
        items: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> list[int]:
        """1-based ranks of ``items[b]`` given ``histories[b]``, batched.

        Shares one :meth:`score_next_batch` call across the whole batch and
        vectorises the rank computation (evaluation hot path for Tables II/IV).
        """
        check_batch_lengths(len(histories), items=items)
        if not histories:
            return []
        scores = self.score_next_batch(histories, user_indices)
        scores[:, PAD_INDEX] = -np.inf
        batch = np.arange(len(histories))
        targets = scores[batch, np.asarray(list(items), dtype=np.int64)]
        return [int(rank) for rank in (scores > targets[:, None]).sum(axis=1) + 1]

    def top_k(
        self,
        history: Sequence[int],
        k: int,
        user_index: int | None = None,
        exclude: Sequence[int] = (),
    ) -> list[int]:
        """Indices of the ``k`` highest-scoring items, excluding ``exclude``."""
        scores = np.asarray(self.score_next(history, user_index), dtype=np.float64).copy()
        scores[PAD_INDEX] = -np.inf
        for item in exclude:
            scores[item] = -np.inf
        k = min(k, np.sum(np.isfinite(scores)))
        order = np.argsort(-scores, kind="stable")
        return [int(i) for i in order[:k]]

    def recommend_next(
        self,
        history: Sequence[int],
        user_index: int | None = None,
        exclude: Sequence[int] = (),
    ) -> int:
        """Single top recommendation (used by the vanilla IRS adaptation)."""
        return self.top_k(history, 1, user_index=user_index, exclude=exclude)[0]


class NeuralSequentialRecommender(SequentialRecommender):
    """Shared mini-batch training loop for the autograd-based models.

    Subclasses implement :meth:`_build` (construct the network once the corpus
    is known), :meth:`_loss` (loss on one padded batch) and
    :meth:`score_next`.
    """

    def __init__(
        self,
        epochs: int = 10,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        weight_decay: float = 0.0,
        max_sequence_length: int = 50,
        grad_clip: float = 5.0,
        padding_scheme: str = "pre",
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.max_sequence_length = max_sequence_length
        self.grad_clip = grad_clip
        self.padding_scheme = padding_scheme
        self.seed = seed
        self.module: Module | None = None
        self.training_history: list[dict[str, float]] = []
        self._fit_generation = 0

    @property
    def fit_generation(self) -> int:
        """Monotonic counter bumped by every (re)train / weight load.

        Downstream caches keyed on this model's outputs (the beam planner's
        :class:`~repro.cache.memo.PlanCache`) compare it to detect retrains
        and invalidate themselves.
        """
        return self._fit_generation

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _build(self, corpus: SequenceCorpus, rng: np.random.Generator) -> Module:
        """Construct and return the underlying network."""

    @abc.abstractmethod
    def _loss(self, batch: SequenceBatch, rng: np.random.Generator) -> Tensor:
        """Compute the training loss for one batch."""

    # ------------------------------------------------------------------ #
    def fit(self, split: DatasetSplit) -> "NeuralSequentialRecommender":
        """Train on ``split`` one mini-batch step at a time, with Adam; returns ``self``.

        Each step's backward frees its graph as it runs, so between steps
        only the parameters, their gradients and Adam's moments are live
        (the ``loss`` held into the next step is a scalar with no graph).
        The fit sets glibc's allocator policy (:data:`_TRAINING_HEAP_POLICY`)
        when it starts, so the heap one step frees is reused by the next
        instead of being trimmed and faulted back in, and trims the heap
        when it returns or raises, so the process does not go on carrying
        the training heap (the e2e catalogue fit leaves 45 MB resident
        rather than 114 MB).  ``mallopt`` is process-wide and is not undone:
        both thresholds stay in force for the rest of the process, serving
        included, and a fixed mmap threshold turns glibc's dynamic one off.

        The policy still pays now that the Transformer models' loss projects
        a few MB of logits at a time rather than holding ``(batch, length,
        vocab)`` arrays: without it the e2e catalogue fit (one BLAS thread,
        2 vCPUs, glibc 2.36, six alternating runs each) makes ≈ 110 k minor
        faults instead of ≈ 5.7 k and takes 1.11–1.46 s instead of
        0.90–1.07 s, at the same 71.5 MB peak RSS.
        """
        rng = as_rng(self.seed)
        self.corpus = split.corpus
        self.module = self._build(split.corpus, rng)
        optimizer = Adam(
            self.module.parameters(), lr=self.learning_rate, weight_decay=self.weight_decay
        )
        scheduler = ReduceLROnPlateau(optimizer, factor=0.5, patience=1)
        self.training_history = []
        for parameter, value in _TRAINING_HEAP_POLICY.items():
            _libc_call("mallopt", parameter, value)

        try:
            for epoch in range(self.epochs):
                start = time.time()
                self.module.train()
                epoch_loss = 0.0
                num_batches = 0
                for batch in iterate_batches(
                    split.train,
                    self.batch_size,
                    shuffle=True,
                    scheme=self.padding_scheme,
                    length=None,
                    seed=rng,
                ):
                    batch = self._truncate(batch)
                    optimizer.zero_grad()
                    loss = self._loss(batch, rng)
                    loss.backward()
                    if self.grad_clip:
                        clip_grad_norm(self.module.parameters(), self.grad_clip)
                    optimizer.step()
                    epoch_loss += loss.item()
                    num_batches += 1
                train_loss = epoch_loss / max(num_batches, 1)

                validation_loss = self._validation_loss(split, rng)
                scheduler.step(validation_loss if validation_loss is not None else train_loss)
                record = {
                    "epoch": epoch + 1,
                    "train_loss": train_loss,
                    "validation_loss": (
                        validation_loss if validation_loss is not None else float("nan")
                    ),
                    "lr": optimizer.lr,
                    "seconds": time.time() - start,
                }
                self.training_history.append(record)
                _LOGGER.info(
                    "%s epoch %d/%d train %.4f val %s (%.1fs)",
                    self.name,
                    epoch + 1,
                    self.epochs,
                    train_loss,
                    f"{validation_loss:.4f}" if validation_loss is not None else "n/a",
                    record["seconds"],
                )
        finally:  # a fit that raises hands its heap back too
            _libc_call("malloc_trim", 0)
        self.module.eval()
        self._fit_generation += 1
        return self

    def _truncate(self, batch: SequenceBatch) -> SequenceBatch:
        """Clip overly long batches to ``max_sequence_length`` (keep the most recent)."""
        if batch.max_length <= self.max_sequence_length:
            return batch
        if self.padding_scheme == "pre":
            items = batch.items[:, -self.max_sequence_length :]
        else:
            items = batch.items[:, : self.max_sequence_length]
        lengths = np.minimum(batch.lengths, self.max_sequence_length)
        return SequenceBatch(items=items, users=batch.users, lengths=lengths)

    def _validation_loss(self, split: DatasetSplit, rng: np.random.Generator) -> float | None:
        if not split.validation:
            return None
        self.module.eval()
        total, batches = 0.0, 0
        with no_grad():
            for batch in iterate_batches(
                split.validation,
                self.batch_size,
                shuffle=False,
                scheme=self.padding_scheme,
                seed=rng,
            ):
                batch = self._truncate(batch)
                total += self._loss(batch, rng).item()
                batches += 1
        self.module.train()
        return total / max(batches, 1)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save_weights(self, path: str) -> None:
        """Save the trained network parameters to ``path`` (``.npz``).

        Only the weights are stored; re-creating the model requires the same
        constructor arguments and corpus (see :meth:`warm_start`).
        """
        from repro.nn.serialization import save_module

        if self.module is None:
            raise NotFittedError(f"{type(self).__name__} has no trained weights to save")
        save_module(self.module, path)

    def warm_start(self, split: DatasetSplit, path: str) -> "NeuralSequentialRecommender":
        """Rebuild the network for ``split`` and load weights saved earlier.

        This skips training entirely: the corpus must have the same
        vocabulary/user universe as the one the weights were trained on
        (mismatched shapes raise a descriptive error from the checkpoint
        loader).  Returns ``self`` so it chains like :meth:`fit`.
        """
        from repro.nn.serialization import load_module

        rng = as_rng(self.seed)
        self.corpus = split.corpus
        self.module = self._build(split.corpus, rng)
        load_module(self.module, path)
        self.module.eval()
        self.training_history = []
        self._fit_generation += 1
        return self
