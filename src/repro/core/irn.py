"""Influential Recommender Network (IRN), §III-D of the paper.

IRN is a Transformer decoder over pre-padded item sequences whose final
position holds the objective item.  Its self-attention uses the Personalized
Impressionability Mask (PIM): every position attends causally to the history
*and*, with an additive weight ``w_t * r_u``, to the objective item, where
``r_u`` is a learned per-user impressionability factor (Eq. 5).

Training minimises the conditional perplexity of observed sequences given
their own final item as objective (Eq. 8-9), i.e. a shifted cross-entropy
where every position predicts the next item while "seeing" the objective
through the PIM.

At inference the current sequence (history ⊕ path so far) is concatenated
with the objective at the final position; the distribution at the last real
position proposes the next path item (Algorithm 1).

What runs at inference
----------------------
No scorer goes through ``_IRNModule.forward``.  The fitted module is
compiled, once per weight version, into a flat float32 program over raw
ndarrays (:mod:`repro.nn.inference`, :meth:`IRN._program`): weights
pre-transposed with Q/K/V fused, the ``r_u`` of every user in a table, and
one primitive — :func:`~repro.nn.inference.block` — from which every scorer
below is composed; masks are plain arrays from :mod:`repro.core.pim`, built
in the program's dtype.  The graph forward (``_IRNModule.forward``) stays
the float64 oracle: a float64 program matches it to ``<= 1e-10``, and the
float32 program's logits stay within ``5e-4`` of the float64 program's.
Training runs its encoder (``_IRNModule.hidden_states``) into the fused
tied-projection loss, which never holds the ``(batch, length, vocab)``
logits.

Batched inference contract
--------------------------
``score_with_objective_batch`` / ``score_next_batch`` fuse many variable-
length sequences into ONE forward (:meth:`~repro.nn.inference.Program.encode`
over the whole batch).  Rows are right-aligned into a
``(batch, max_len)`` window — padding on the left — so every row's objective
occupies the shared final column and the PIM's objective-column reveal
applies to all rows at once.  Position indices are computed *per row*
(``0 .. len-1`` over the real tokens, position 0 for the left padding), so
each row sees exactly the position embeddings the unbatched scorer would
use.  Padding keys are masked with ``NEG_INF`` and padded query positions
are never gathered, which makes the batched scores equal to the scalar ones
up to BLAS summation-order noise (documented tolerance ``~1e-8`` on a
float64 program, inside the float32 bound on the float32 one; the scalar
methods are thin ``batch=1`` wrappers and remain bit-identical to the
pre-batching implementation).

Every inference forward reads one position per row, so the final layer
answers one query: it still normalises and projects keys/values for every
column (they are what the query attends over, and what a session caches),
but the query projection, attention, output projection, residuals,
feed-forward, final norm and the tied output projection run on the gathered
column alone (``queries=`` of :func:`~repro.nn.inference.block`).  The full
``(batch, length, vocab)`` graph forward is the parity oracle.

Incremental decoding contract
-----------------------------
:meth:`IRN.begin_decoding_session` / :meth:`IRN.advance_decoding_session`
are the cached variant of :meth:`IRN.score_with_objective_batch`, and the
only way the beam planner scores: every session is conditioned on its rows'
objectives through the PIM, as every step of Algorithm 1 is.  An advance
appends one token per row and runs in one of three regimes, chosen from
what the code observes (mask type, layer count, and whether history + path
+ objective still fits ``max_sequence_length``), never from an option:

* **Exact reuse across depths** — ``MaskType.CAUSAL`` at any depth, or
  single-layer stacks under any mask.  Prefix hidden states cannot change
  as the sequence grows, so the session caches per-layer prefix keys/values
  (:mod:`repro.cache.kv`) and each depth embeds only the newly appended
  token (plus the re-projected objective, whose position embedding moves
  with the sequence length) while attending over the cached prefix:
  :meth:`IRN._advance_incremental`, i.e. ``Program.encode`` with the arena
  views as every layer's ``prefix_kv``.  Recorded as ``incremental``
  token-work.
* **Shared within a depth** — objective-revealing masks (Types 2/3) with
  ``num_layers >= 2``, the model the paper proposes.  Every prefix position
  attends to the objective, whose position embedding advances at every
  step, so layer-2+ prefix states change each depth and nothing can be kept
  across depths.  Within one depth, though, the rows of one root (the beam
  hypotheses of one planning context) share history, objective, user and
  length, and causality keeps their history states blind to what each row
  appended: :meth:`IRN._advance_shared` encodes ``history ⊕ objective`` once
  per live root and only each row's appended tokens ⊕ objective per row
  (``block`` per layer; a depth's history K/V are plain arrays gathered
  root → row as ``prefix_kv``, no arena).  What the first layer does on the
  history columns before attention — embeddings, layer norm, Q/K/V — does
  not depend on the objective's position: it is computed once per session
  and kept on it (:class:`_RootCache`), so a depth re-embeds only the
  objective there.  Recorded as ``fallback`` token-work, with the positions
  actually encoded.
* **Per-row window** — a row outgrew the model's window, so the right-aligned
  batch slides, every position embedding shifts and no column is shared:
  each row re-encodes its own window, the rightmost columns of the session's
  token block (the batched scorer's :meth:`IRN._score_objective_block`).
  Also ``fallback`` token-work.

All three agree with the uncached scorer to the same tolerance as the
batching contract (GEMM shapes and softmax row widths differ, values do not)
and produce identical plans.  A session begun with a per-row candidate
table (a pruned plan's shortlists) keeps the table's gathered projection
rows for its whole life; every regime projects each row onto its root's
rows and returns ``(rows, K)`` scores, which equal
``score_with_objective_batch`` on the same ``(rows, K)`` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cache.kv import DecodingState
from repro.cache.session import DecodingSession
from repro.cache.stats import DecodeStats
from repro.core.base import InfluentialRecommender, influential_registry
from repro.core.beam import BeamSearchPlanner
from repro.core.influence_path import mask_session_items
from repro.core.pim import (
    MaskType,
    build_pim,
    causal_history_mask,
    objective_column_indicator,
)
from repro.data.batching import SequenceBatch
from repro.data.interactions import SequenceCorpus
from repro.data.padding import PAD_INDEX, pre_pad_block
from repro.data.splitting import DatasetSplit
from repro.models._sequence_utils import clip_history, shifted_inputs_and_targets
from repro.models.base import NeuralSequentialRecommender, model_registry
from repro.utils.batch import broadcast_user_indices, check_batch_lengths
from repro.nn import functional as F
from repro.nn import inference
from repro.nn.attention import NEG_INF
from repro.nn.layers import Dropout, Embedding, Linear, Module
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerEncoder
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import spawn_rng

__all__ = ["IRN"]


class _IRNModule(Module):
    """Embedding layer + PIM-masked decoder stack + tied output projection.

    Training runs :meth:`hidden_states` into the fused tied-projection loss
    (:func:`~repro.nn.functional.tied_cross_entropy`); :meth:`forward`
    adds the projection as a graph node and is kept as the inference oracle.
    """

    def __init__(
        self,
        vocab_size: int,
        num_users: int,
        max_length: int,
        embedding_dim: int,
        user_dim: int,
        num_heads: int,
        num_layers: int,
        dropout: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        rngs = spawn_rng(rng, 5)
        self.vocab_size = vocab_size
        self.max_length = max_length
        self.item_embedding = Embedding(vocab_size, embedding_dim, padding_idx=0, rng=rngs[0])
        self.position_embedding = Embedding(max_length, embedding_dim, rng=rngs[1])
        self.user_embedding = Embedding(num_users, user_dim, rng=rngs[2])
        # r_u = W_U e(u) + b, with b initialised to 1 so training starts from
        # the uniform Type-2 behaviour and learns per-user deviations.
        self.impressionability = Linear(user_dim, 1, rng=rngs[3])
        self.impressionability.bias.data[:] = 1.0
        self.decoder = TransformerEncoder(
            num_layers, embedding_dim, num_heads, dropout=dropout, rng=rngs[4]
        )
        self.dropout = Dropout(dropout, rng=rngs[4])

    # ------------------------------------------------------------------ #
    def impressionability_factor(self, users: np.ndarray) -> Tensor:
        """Return ``r_u`` for a batch of user indices, shape ``(batch, 1)``."""
        user_vectors = self.user_embedding(np.asarray(users, dtype=np.int64))
        return self.impressionability(user_vectors)

    def _pim(
        self,
        items: np.ndarray,
        users: np.ndarray,
        mask_type: MaskType,
        objective_weight: float,
        history_weight: float,
    ) -> "Tensor | np.ndarray":
        """Compose the PIM; differentiable w.r.t. ``r_u`` for Type 3."""
        base = causal_history_mask(items, history_weight=history_weight)
        length = items.shape[1]
        if mask_type == MaskType.CAUSAL or length < 2:
            return base
        revealed = base.copy()
        revealed[:, : length - 1, length - 1] = 0.0
        indicator = objective_column_indicator(length)
        if mask_type == MaskType.OBJECTIVE:
            return revealed + indicator[None, :, :] * float(objective_weight)
        # Personalized: w_t * r_u enters as a Tensor so gradients reach the
        # user embedding and the impressionability projection.
        r_u = self.impressionability_factor(users)  # (batch, 1)
        weight = r_u.reshape(-1, 1, 1) * float(objective_weight)
        return Tensor(revealed) + Tensor(indicator[None, :, :]) * weight

    def hidden_states(
        self,
        items: np.ndarray,
        users: np.ndarray,
        mask_type: MaskType = MaskType.PERSONALIZED,
        objective_weight: float = 1.0,
        history_weight: float = 0.0,
        positions: np.ndarray | None = None,
    ) -> Tensor:
        """Return the decoder's output, shape ``(batch, length, embedding_dim)``.

        The encoder path both :meth:`forward` and training
        (:meth:`IRN._loss`) run.  ``positions`` optionally overrides the
        default ``arange(length)`` position indices with a per-row
        ``(batch, length)`` array, as the batched scorers use for
        right-aligned (left-padded) rows.
        """
        items = np.asarray(items, dtype=np.int64)
        batch, length = items.shape
        if positions is None:
            positions = np.tile(np.arange(length) % self.max_length, (batch, 1))
        hidden = self.dropout(self.item_embedding(items) + self.position_embedding(positions))
        mask = self._pim(items, users, mask_type, objective_weight, history_weight)
        return self.decoder(hidden, mask=mask)

    def forward(
        self,
        items: np.ndarray,
        users: np.ndarray,
        mask_type: MaskType = MaskType.PERSONALIZED,
        objective_weight: float = 1.0,
        history_weight: float = 0.0,
        positions: np.ndarray | None = None,
    ) -> Tensor:
        """Return next-item logits of shape ``(batch, length, vocab_size)``.

        The graph forward: the oracle the compiled inference program
        (:mod:`repro.nn.inference`) is held to.  Training does not run it;
        :meth:`IRN._loss` runs :meth:`hidden_states` into the fused loss.
        """
        hidden = self.hidden_states(
            items, users, mask_type, objective_weight, history_weight, positions
        )
        # tied output projection onto the item embeddings
        return hidden.matmul(self.item_embedding.weight.transpose())


@dataclass(frozen=True)
class _RootCache:
    """What every shared-regime advance of one session reuses of its live
    roots: the work layer 1 does on their history columns, none of which
    depends on the objective's position (see :meth:`IRN._advance_shared`).
    ``H`` is the longest history among them."""

    program: inference.Program  # the weights it was computed with
    slot: np.ndarray  # per session root: its row here, -1 once it died
    #: ``(roots, H + 1)``: right-aligned history (a PAD placeholder when
    #: empty) ⊕ objective
    items: np.ndarray
    lengths: np.ndarray  # (roots,): real history tokens
    embedded: np.ndarray  # (roots, H, d): history item + position embeddings
    queries: np.ndarray  # (roots, H, d): their layer-1 query projections
    #: ``(roots, H + 1, 2d)``: their key | value projections, fused as
    #: block() fuses them; each depth writes its objective's into the last
    kv: np.ndarray
    pim: np.ndarray  # (roots, H + 1, H + 1)

    @property
    def history_width(self) -> int:
        return self.embedded.shape[1]

    def keep(self, live: np.ndarray) -> "_RootCache":
        """The cache of the roots the ``live`` mask keeps, cut to their longest history."""
        index = np.flatnonzero(live)
        cut = self.history_width - int(np.maximum(self.lengths[index], 1).max())
        renumber = np.full(len(live) + 1, -1, dtype=np.int64)  # [-1] keeps a dead root dead
        renumber[index] = np.arange(index.size)
        return _RootCache(
            program=self.program,
            slot=renumber[self.slot],
            items=self.items[index, cut:],
            lengths=self.lengths[index],
            embedded=self.embedded[index, cut:],
            queries=self.queries[index, cut:],
            kv=self.kv[index, cut:],
            pim=self.pim[index, cut:, cut:],
        )


@model_registry.register("irn")
@influential_registry.register("irn")
class IRN(NeuralSequentialRecommender, InfluentialRecommender):
    """The paper's Influential Recommender Network.

    IRN implements both package interfaces: as a
    :class:`~repro.models.base.SequentialRecommender` it scores the next item
    for a history (used for the Table IV next-item comparison), and as an
    :class:`~repro.core.base.InfluentialRecommender` it generates influence
    paths toward an objective item (Tables III/V, Figures 6-9).

    Parameters (defaults follow Table VI, scaled to the NumPy training budget)
    ----------------------------------------------------------------------
    embedding_dim:
        Item embedding size ``d``.
    user_dim:
        User embedding size ``d'``.
    num_layers / num_heads:
        Decoder depth ``L`` and attention heads ``h``.
    objective_weight:
        The objective mask weight ``w_t`` (aggressiveness degree) in ``[0, 1]``
        as in the paper.
    objective_logit_scale:
        Calibration constant mapping ``w_t`` to this implementation's
        attention-logit scale: the additive PIM weight is
        ``w_t * r_u * objective_logit_scale``.  The paper's Transformer uses
        larger embeddings and more layers, so a unit additive weight exerts a
        comparatively stronger pull there; the default of 4.5 reproduces the
        paper's qualitative behaviour at this repo's model size
        (``benchmarks/test_figure7_aggressiveness.py`` asserts that SR rises
        with ``w_t`` all the way up to this effective weight).
    history_weight:
        The history mask weight ``w_h`` (the paper uses 0 with ``w_t > w_h``).
    mask_type:
        The PIM variant (Table V ablation); Type 3 (personalized) by default.
    item2vec_init:
        Initialise item embeddings from item2vec vectors trained on the
        corpus (§III-D1).
    padding_scheme:
        ``"pre"`` (the paper's choice, §III-D5) keeps the objective item at
        the fixed final position of every training window; ``"post"`` exists
        only for the padding ablation and degrades the objective signal.

    Training and the autograd graph run in float64; every scorer plans on a
    float32 program compiled from the float64 weights
    (:mod:`repro.nn.inference`).  Its logits stay within ``5e-4`` of the
    float64 program's, and greedy and beam plans are the float64 plans
    (``tests/core/test_float32_contract.py``).  Scores leave the scorers as
    float64, so path log-probabilities accumulate in float64.
    """

    name = "IRN"

    def __init__(
        self,
        embedding_dim: int = 32,
        user_dim: int = 8,
        num_heads: int = 2,
        num_layers: int = 2,
        dropout: float = 0.1,
        objective_weight: float = 1.0,
        objective_logit_scale: float = 4.5,
        history_weight: float = 0.0,
        mask_type: MaskType = MaskType.PERSONALIZED,
        item2vec_init: bool = False,
        epochs: int = 10,
        batch_size: int = 64,
        learning_rate: float = 3e-3,
        max_sequence_length: int = 50,
        padding_scheme: str = "pre",
        seed: int = 0,
    ) -> None:
        NeuralSequentialRecommender.__init__(
            self,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            max_sequence_length=max_sequence_length,
            padding_scheme=padding_scheme,
            seed=seed,
        )
        if objective_weight < 0:
            raise ConfigurationError("objective_weight (w_t) must be non-negative")
        if objective_logit_scale <= 0:
            raise ConfigurationError("objective_logit_scale must be positive")
        self.embedding_dim = embedding_dim
        self.user_dim = user_dim
        self.num_heads = num_heads
        self.num_layers = num_layers
        self.dropout = dropout
        self.objective_weight = objective_weight
        self.objective_logit_scale = objective_logit_scale
        self.history_weight = history_weight
        self.mask_type = MaskType(mask_type)
        self.item2vec_init = item2vec_init
        #: token-work counters for the perf harness (reset by :meth:`fit`)
        self.decode_stats = DecodeStats()
        #: the compiled inference program (see :meth:`_program`)
        self._compiled: "inference.Program | None" = None
        #: the width-1 planner Algorithm 1 runs through (see
        #: :meth:`generate_paths_batch`), built on first use
        self._greedy: "BeamSearchPlanner | None" = None

    # ------------------------------------------------------------------ #
    # Construction / training
    # ------------------------------------------------------------------ #
    def fit(self, split: DatasetSplit) -> "IRN":
        NeuralSequentialRecommender.fit(self, split)
        # Retraining invalidates any outstanding decoding session or plan
        # cache: fit_generation (bumped by the base class) signals consumers,
        # and the token-work counters restart for the new model.
        self.decode_stats.reset()
        return self

    def _build(self, corpus: SequenceCorpus, rng: np.random.Generator) -> Module:
        module = _IRNModule(
            vocab_size=corpus.vocab.size,
            num_users=corpus.num_users,
            max_length=self.max_sequence_length + 1,
            embedding_dim=self.embedding_dim,
            user_dim=self.user_dim,
            num_heads=self.num_heads,
            num_layers=self.num_layers,
            dropout=self.dropout,
            rng=rng,
        )
        if self.item2vec_init:
            from repro.embeddings.item2vec import Item2Vec

            item2vec = Item2Vec(embedding_dim=self.embedding_dim, epochs=2, seed=self.seed)
            item2vec.fit(corpus)
            module.item_embedding.load_pretrained(item2vec.vectors)
        return module

    def _loss(self, batch: SequenceBatch, rng: np.random.Generator) -> Tensor:
        # The training sub-sequences are pre-padded, so the objective item
        # (the last item of each sub-sequence) sits at the final column; it
        # predicts nothing, so the loss leaves that column out.
        hidden = self.module.hidden_states(
            batch.items,
            batch.users,
            mask_type=self.mask_type,
            objective_weight=self.objective_weight * self.objective_logit_scale,
            history_weight=self.history_weight,
        )
        _, targets = shifted_inputs_and_targets(batch.items)
        return F.tied_cross_entropy(hidden, self.module.item_embedding.weight, targets)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def _program(self) -> inference.Program:
        """The float32 inference program of the current weights.

        Compiled on first use and again whenever the weights it was
        extracted from are no longer the module's (``fit`` / ``warm_start``,
        ``load_state_dict`` — which a hot refit runs without bumping
        ``fit_generation`` — ``load_pretrained``).  Programs are read-only,
        so threads racing the first call each compile one and either serves.
        """
        program = self._compiled
        if program is None or not program.current(self.module):
            program = self._compiled = inference.compile(self.module)
        return program

    def _pim(
        self, program: inference.Program, items: np.ndarray, users: np.ndarray
    ) -> np.ndarray:
        """The additive PIM of right-aligned ``items`` whose last column is the objective."""
        return build_pim(
            items,
            self.mask_type,
            self.objective_weight * self.objective_logit_scale,
            self.history_weight,
            impressionability=program.impressionability[users],
            dtype=program.dtype,
        )

    def _safe_user(self, user_index: int | None) -> int:
        corpus = self._require_fitted()
        if user_index is None or not 0 <= user_index < corpus.num_users:
            return 0
        return int(user_index)

    def _right_align(
        self, rows: list[list[int]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pack ragged rows into right-aligned ``(items, positions, lengths)``.

        Rows are left-padded with :data:`PAD_INDEX` so their last tokens share
        the final column; see :meth:`_positions`.
        """
        items = pre_pad_block(rows)
        lengths = np.asarray([len(row) for row in rows], dtype=np.int64)
        return items, self._positions(lengths, items.shape[1]), lengths

    def _positions(self, lengths: np.ndarray, width: int) -> np.ndarray:
        """Position indices of a right-aligned ``(batch, width)`` block whose
        rows hold ``lengths`` real tokens: ``0 .. len_b - 1`` over the real
        tokens, 0 on the padding (which is never attended to)."""
        assert self.module is not None
        columns = np.arange(width, dtype=np.int64)[None, :]
        offsets = (width - lengths)[:, None]
        return np.maximum(columns - offsets, 0) % self.module.max_length

    def _batch_users(self, user_indices, batch: int) -> np.ndarray:
        users = broadcast_user_indices(batch, user_indices)
        return np.asarray([self._safe_user(u) for u in users], dtype=np.int64)

    def score_with_objective_batch(
        self,
        sequences: Sequence[Sequence[int]],
        objectives: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
        candidate_items: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Objective-conditioned next-item scores for many sequences at once.

        Fuses all rows into a single forward of the compiled program:
        sequences are right-aligned (left-padded) so every objective sits in
        the shared final column, per-row position indices preserve the scalar
        scorer's ``0 .. len-1`` numbering, and each row's scores are gathered
        from its last real non-objective position.  Returns a ``(batch,
        vocab)`` array; row ``b`` equals ``score_with_objective(sequences[b],
        objectives[b])`` up to floating-point summation-order tolerance
        (~1e-8 on a float64 program).

        ``candidate_items`` — a per-row ``(batch, K)`` table of item ids in
        ``[1, vocab)``, one shortlist per row (the beam planner's shortlist
        space) — restricts the output projection to the gathered rows of
        those items and returns the ``(batch, K)`` logits of row ``b`` at
        ``candidate_items[b]``, in the given column order (repeats allowed;
        ragged shortlists are the caller's to pad and mask), without
        building a ``(batch, vocab)`` array.  They equal the full scores at
        those items.  This is the uncached reference a shortlist-space
        decoding session (:meth:`begin_decoding_session`) is held to.
        """
        self._require_fitted()
        assert self.module is not None
        batch = len(sequences)
        objectives = list(objectives)
        check_batch_lengths(batch, objectives=objectives)
        candidate_items = self._normalize_candidates(candidate_items, batch)
        if batch == 0:
            return np.zeros((0, self.vocab_size), dtype=np.float64)
        rows = [
            [int(item) for item in clip_history(seq, self.max_sequence_length - 1)]
            + [int(objective)]
            for seq, objective in zip(sequences, objectives)
        ]
        items, _, lengths = self._right_align(rows)
        return self._score_objective_block(
            items,
            lengths,
            self._batch_users(user_indices, batch),
            candidate_rows=self._candidate_rows(candidate_items),
        )

    def _normalize_candidates(
        self, candidate_items: "np.ndarray | None", batch: int
    ) -> "np.ndarray | None":
        """Check a per-row ``(batch, K)`` candidate table; ``None`` means the
        full vocabulary.  Returns the table as int64."""
        if candidate_items is None:
            return None
        cands = np.asarray(candidate_items)
        if cands.ndim != 2 or cands.shape[0] != batch:
            raise ConfigurationError(
                f"candidate_items must be a (batch, K) table with one row per "
                f"sequence: got shape {cands.shape} for a batch of {batch}"
            )
        if cands.size == 0:
            raise ConfigurationError("candidate_items must name at least one item")
        if not np.issubdtype(cands.dtype, np.integer):
            raise ConfigurationError(
                f"candidate_items must hold integer item ids, got dtype {cands.dtype}"
            )
        cands = cands.astype(np.int64, copy=False)
        low, high = int(cands.min()), int(cands.max())
        if low < 1 or high >= self.vocab_size:
            raise ConfigurationError(
                f"candidate_items must lie in [1, {self.vocab_size}); got range "
                f"[{low}, {high}]"
            )
        return cands

    def _candidate_rows(self, candidate_items: "np.ndarray | None") -> "np.ndarray | None":
        """The ``(batch, K, d)`` projection rows of a checked candidate table."""
        if candidate_items is None:
            return None
        return self._program().item_table[candidate_items]

    def _score_objective_block(
        self,
        items: np.ndarray,
        lengths: np.ndarray,
        users: np.ndarray,
        record: str = "full",
        caches: "list | None" = None,
        persist: int | None = None,
        candidate_rows: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Score right-aligned ``history ⊕ objective`` rows in one forward.

        ``items`` is ``(batch, width)`` with every objective in the last
        column and ``lengths`` each row's real token count, objective
        included.  ``candidate_rows`` — the ``(batch, K, d)`` projection
        rows of a per-row shortlist, already gathered — projects onto them
        and returns ``(batch, K)`` scores.
        """
        # Each row is read at its last real non-objective position: one
        # shared column, or two when an empty history shares the batch.
        width = items.shape[1]
        columns, gather = np.unique(
            np.where(lengths >= 2, width - 2, width - 1), return_inverse=True
        )
        program = self._program()
        hidden = program.encode(
            program.embed(items, self._positions(lengths, width)),
            self._pim(program, items, users),
            queries=columns,
            caches=caches,
            persist=persist,
        )
        if candidate_rows is None:
            logits = program.project(hidden)
        else:
            logits = program.project_rows(hidden, candidate_rows)
        self._record_tokens(record, items.size)
        logits = logits[np.arange(len(items)), gather]
        if candidate_rows is not None:
            return logits.astype(np.float64)
        return self._item_scores(logits)

    def _item_scores(self, logits: np.ndarray) -> np.ndarray:
        """Float64 full-vocabulary scores from one row of logits per context,
        ``-inf`` at the padding item."""
        scores = logits.astype(np.float64, copy=True)
        scores[:, PAD_INDEX] = -np.inf
        return scores

    def _record_tokens(self, record: str, tokens: int) -> None:
        if record == "full":
            self.decode_stats.record_full(tokens)
        elif record == "fallback":
            self.decode_stats.record_fallback(tokens)
        else:  # pragma: no cover - internal misuse
            raise ConfigurationError(f"unknown decode record kind '{record}'")

    def score_with_objective(
        self,
        sequence: Sequence[int],
        objective: int,
        user_index: int | None = None,
    ) -> np.ndarray:
        """Next-item scores conditioned on the objective item through the PIM.

        Thin ``batch=1`` wrapper around :meth:`score_with_objective_batch`
        (a single row needs no padding, so this is bit-identical to the
        pre-batching scalar implementation).
        """
        return self.score_with_objective_batch([sequence], [objective], [user_index])[0]

    def score_next_batch(
        self,
        histories: Sequence[Sequence[int]],
        user_indices: "Sequence[int | None] | None" = None,
    ) -> np.ndarray:
        """Objective-free next-item scores for many histories in one forward.

        Same right-alignment contract as :meth:`score_with_objective_batch`,
        with a causal-only mask; scores are gathered at the shared final
        column (each row's most recent real item).
        """
        self._require_fitted()
        assert self.module is not None
        batch = len(histories)
        if batch == 0:
            return np.zeros((0, self.vocab_size), dtype=np.float64)
        rows = []
        for history in histories:
            clipped = [int(item) for item in clip_history(history, self.max_sequence_length)]
            rows.append(clipped if clipped else [PAD_INDEX])
        items, _, lengths = self._right_align(rows)
        broadcast_user_indices(batch, user_indices)  # length check: causal scoring reads no user
        return self._score_next_block(items, lengths)

    def _score_next_block(self, items: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Score right-aligned histories (``lengths`` real tokens each) at the final column."""
        program = self._program()
        hidden = program.encode(
            program.embed(items, self._positions(lengths, items.shape[1])),
            causal_history_mask(items, dtype=program.dtype),
            queries=slice(-1, None),
        )
        self._record_tokens("full", items.size)
        return self._item_scores(program.project(hidden)[:, 0])

    def score_next(self, history: Sequence[int], user_index: int | None = None) -> np.ndarray:
        """Objective-free next-item scores (causal mask only; Table IV usage)."""
        return self.score_next_batch([history], [user_index])[0]

    # ------------------------------------------------------------------ #
    # Incremental decoding sessions (cached scorer variants)
    # ------------------------------------------------------------------ #
    def _incremental_exact(self) -> bool:
        """Whether prefix K/V reuse across depths is exact for this model.

        Under ``MaskType.CAUSAL`` no prefix position sees appended tokens or
        the objective, so caching is exact at any depth.  Objective-revealing
        masks (Types 2/3) make every prefix position attend to the
        objective, whose position embedding moves each step — exact only
        when there is a single layer, whose K/V are projections of the fixed
        input embeddings.
        """
        return self.mask_type == MaskType.CAUSAL or self.num_layers == 1

    def begin_decoding_session(
        self,
        sequences: Sequence[Sequence[int]],
        objectives: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
        candidate_items: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, DecodingSession]:
        """Cached variant of :meth:`score_with_objective_batch`: encode contexts once.

        Returns ``(scores, session)`` where ``scores`` equals
        :meth:`score_with_objective_batch` on the same inputs.  When prefix
        reuse across depths is exact (see :meth:`_incremental_exact`)
        ``session`` holds the per-layer prefix K/V and later
        :meth:`advance_decoding_session` calls encode only the newly appended
        token per row; otherwise it records each row's root so later advances
        encode every root's history once per depth — scores match the
        uncached scorer either way.

        A per-row ``(batch, K)`` ``candidate_items`` table puts the session
        in shortlist space: it keeps the table's projection rows, and this
        call and every advance return ``(rows, K)`` scores at each row's own
        shortlist, as :meth:`score_with_objective_batch` does for the same
        table.
        """
        self._require_fitted()
        assert self.module is not None
        batch = len(sequences)
        if batch == 0:
            raise ConfigurationError("cannot begin a decoding session on an empty batch")
        if objectives is None:
            raise ConfigurationError("a decoding session needs one objective per row")
        objectives = np.asarray([int(objective) for objective in objectives], dtype=np.int64)
        check_batch_lengths(batch, objectives=objectives)
        users = self._batch_users(user_indices, batch)
        candidate_rows = self._candidate_rows(self._normalize_candidates(candidate_items, batch))
        incremental = self._incremental_exact()
        state = DecodingState(self.num_layers) if incremental else None
        rows = [
            [int(item) for item in clip_history(seq, self.max_sequence_length - 1)]
            for seq in sequences
        ]
        tokens = pre_pad_block(rows)
        lengths = np.asarray([len(row) for row in rows], dtype=np.int64)
        scores = self._score_objective_block(
            np.concatenate([tokens, objectives[:, None]], axis=1),
            lengths + 1,
            users,
            caches=None if state is None else state.layers,  # filled by this forward
            persist=tokens.shape[1],
            candidate_rows=candidate_rows,
        )
        impressionability = None
        if self.mask_type == MaskType.PERSONALIZED:
            impressionability = self._program().impressionability[users]
        session = DecodingSession(
            tokens,
            lengths,
            users,
            objectives,
            state,
            incremental,
            impressionability,
            candidate_rows,
        )
        return scores, session

    def advance_decoding_session(
        self,
        session: DecodingSession,
        new_items: "Sequence[int] | np.ndarray",
        parent_rows: "Sequence[int] | np.ndarray | None" = None,
    ) -> np.ndarray:
        """Append one token per surviving row and score the grown contexts.

        ``parent_rows`` gathers the session down to the rows the new tokens
        extend (beam pruning/re-ranking/duplication); ``new_items[b]`` is then
        appended to gathered row ``b``.  Returns the same ``(batch, vocab)``
        scores the uncached batched scorer would produce for the grown
        sequences — ``(batch, K)`` at each row's shortlist for a session in
        shortlist space — in whichever of the three regimes of the module
        docstring the session and the grown lengths allow, as a fresh
        float64 block.
        """
        self._require_fitted()
        assert self.module is not None
        # Validate both arguments before the session is touched: a refused
        # call must leave it as it was (select checks the row range itself).
        new_items = np.asarray(new_items, dtype=np.int64)
        survivors = session.batch_size if parent_rows is None else len(parent_rows)
        check_batch_lengths(survivors, new_items=new_items)
        if parent_rows is not None:
            session.select(parent_rows)
        session.append(new_items)
        if session.batch_size == 0:
            rows = session.root_candidate_rows
            width = self.vocab_size if rows is None else rows.shape[1]
            return np.zeros((0, width), dtype=np.float64)
        # Once any row outgrows the model's window the right-aligned batch
        # starts *sliding* (oldest tokens drop off), which shifts every
        # position embedding: cached K/V become stale, so an incremental
        # session degrades to the per-row window for good, and no history
        # column is shared between a root's rows any more.
        limit = self.max_sequence_length - 1  # the objective takes one column
        lengths = session.lengths
        fits = int(lengths.max()) <= limit
        if session.incremental and not fits:
            session.degrade()
        if session.incremental:
            return self._advance_incremental(session, new_items)
        # A degraded incremental session stays on the per-row window even
        # when a prune makes its rows fit again.
        if fits and not self._incremental_exact():
            return self._advance_shared(session)
        # The per-row window: each row's last `limit` tokens, right-aligned —
        # the rightmost columns of the token block.
        lengths = np.minimum(lengths, limit)
        items = session.tokens[:, session.width - int(lengths.max()) :]
        return self._score_objective_block(
            np.concatenate([items, session.objectives[:, None]], axis=1),
            lengths + 1,
            session.users,
            record="fallback",
            candidate_rows=session.candidate_rows,
        )

    def _advance_incremental(
        self, session: DecodingSession, new_items: np.ndarray
    ) -> np.ndarray:
        """Encode each row's new token ⊕ objective over the session's cached prefix K/V."""
        program = self._program()
        lengths = session.lengths  # post-append; the new token sits at position len-1
        items = np.stack([new_items, session.objectives], axis=1)
        positions = np.stack([lengths - 1, lengths], axis=1)
        positions = positions % len(program.position_table)  # no-op (guarded), as _right_align
        # The new token joins every layer's cache; the objective's K/V are
        # re-projected each step (its position moves) and never kept.
        hidden = program.encode(
            program.embed(items, positions),
            self._incremental_mask(session, session.width, program.dtype),
            queries=slice(0, 1),
            caches=session.state.layers,
            persist=1,
        )
        self.decode_stats.record_incremental(items.size)
        return self._session_scores(session, program, hidden)

    def _advance_shared(self, session: DecodingSession) -> np.ndarray:
        """Score an objective session, encoding every live root's history once.

        The rows of one root at one depth share history, objective, user and
        length — hence the objective's position — so their history columns
        carry identical layer-1 states, which depend on nothing a row
        appended.  Per depth: (a) layer 1 runs once per live root on
        ``history ⊕ objective`` (:meth:`_shared_history`); (b) a root → row
        gather later, layer 1 runs on each row's ``steps`` appended tokens
        ⊕ objective over ``[root history K/V ; own K/V]`` under the PIM rows
        the full window would give those queries.  With two layers the final
        layer takes its history K/V from the shared states the same way;
        deeper stacks reassemble the per-row window for the middle layers.
        The final layer answers one query, the last appended token.

        What does not change across depths is computed once per session,
        in the session's :class:`_RootCache`: the roots' history embeddings
        and their layer-1 normalised Q/K/V.  Each depth re-embeds only the
        objective, at its moved position.  When roots die (no row descends
        from them any more) the cache keeps the live ones only, cut to the
        longest live history, so every array has the shape encoding the live
        roots from scratch gives it (and every attention row its width).
        """
        program = self._program()
        layers = program.layers
        cache = session.root_cache
        if cache is None or cache.program is not program:
            cache = session.root_cache = self._root_cache(session, program)
        roots = cache.slot[session.roots]  # row -> cache row
        present = np.zeros(len(cache.lengths), dtype=bool)
        present[roots] = True
        if not present.all():
            cache = session.root_cache = cache.keep(present)
            roots = cache.slot[session.roots]
        steps = session.steps
        items = np.empty((session.batch_size, steps + 1), dtype=np.int64)
        items[:, :steps] = session.tokens[:, -steps:]
        items[:, steps] = session.objectives
        positions = (session.lengths - steps)[:, None] + np.arange(steps + 1, dtype=np.int64)
        mask = self._incremental_mask(
            session, cache.history_width + steps, program.dtype, new=steps
        )
        width = program.item_table.shape[1]

        def per_row(fused: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
            # root -> row on the fused (roots, history, 2d) array, then per head
            return tuple(
                inference.split_heads(
                    np.take(fused, roots, axis=0), len(roots), layers[0].heads, width
                )
            )

        history = self._shared_history(cache, program, steps)
        hidden, _, _ = inference.block(
            layers[0],
            program.embed(items, positions),
            mask,
            prefix_kv=per_row(cache.kv[:, :-1]),
        )
        if len(layers) == 2:
            # keys/values only: no query reads the history states here
            shared = per_row(inference.keys_values(layers[1], history))
        else:
            shared = None
            hidden = np.concatenate([history[roots], hidden], axis=1)
            mask = self._pim(
                program, np.concatenate([cache.items[roots, :-1], items], axis=1), session.users
            )
            for layer in layers[1:-1]:
                hidden, _, _ = inference.block(layer, hidden, mask)
        hidden, _, _ = inference.block(
            layers[-1], hidden, mask, prefix_kv=shared, queries=slice(-2, -1)
        )
        self.decode_stats.record_fallback(cache.items.size + items.size)
        return self._session_scores(
            session, program, inference.layer_norm(hidden, *program.final_norm)
        )

    def _session_scores(
        self, session: DecodingSession, program: inference.Program, hidden: np.ndarray
    ) -> np.ndarray:
        """Float64 scores of each session row's ``(rows, 1, d)`` final state:
        ``(rows, vocab)``, or ``(rows, K)`` at its shortlist in shortlist space."""
        rows = session.candidate_rows
        if rows is None:
            return self._item_scores(program.project(hidden)[:, 0])
        return program.project_rows(hidden, rows)[:, 0].astype(np.float64)

    def _root_cache(self, session: DecodingSession, program: inference.Program) -> "_RootCache":
        """Layer 1's history-column work on every root of a shared-regime session."""
        layer = program.layers[0]
        tokens = session.root_tokens
        if not tokens.shape[1]:
            tokens = np.full((len(tokens), 1), PAD_INDEX, dtype=np.int64)
        batch, width = tokens.shape
        # An empty history keeps a PAD placeholder (as in score_next_batch):
        # its column is masked for every query.
        embedded = program.embed(
            tokens, self._positions(np.maximum(session.root_lengths, 1), width)
        )
        normed = inference.layer_norm(embedded.reshape(batch * width, -1), *layer.norm1)
        kv = np.empty((batch, width + 1, layer.wkv.shape[1]), dtype=program.dtype)
        kv[:, :width] = (normed @ layer.wkv).reshape(batch, width, -1)
        kv[:, :width] += layer.bkv
        queries = normed @ layer.wq
        queries += layer.bq
        items = np.concatenate([tokens, session.root_objectives[:, None]], axis=1)
        return _RootCache(
            program=program,
            slot=np.arange(batch, dtype=np.int64),
            items=items,
            lengths=session.root_lengths,
            embedded=embedded,
            queries=queries.reshape(batch, width, -1),
            kv=kv,
            pim=self._pim(program, items, session.root_users),
        )

    def _shared_history(
        self, cache: "_RootCache", program: inference.Program, steps: int
    ) -> np.ndarray:
        """Layer 1 on the cached roots' history columns, ``steps`` tokens in.

        The history columns' embeddings and projections come from ``cache``;
        only the objective, whose position follows the ``steps`` appended
        tokens, is embedded, normalised and projected, into the cache's
        objective column.  Returns the ``(roots, history, d)`` states.
        """
        layer = program.layers[0]
        objective = program.embed(cache.items[:, -1:], (cache.lengths + steps)[:, None])
        count, _, width = objective.shape
        normed = inference.layer_norm(objective.reshape(count, width), *layer.norm1)
        cache.kv[:, -1] = normed @ layer.wkv
        cache.kv[:, -1] += layer.bkv
        keys, values = inference.split_heads(cache.kv, count, layer.heads, width)
        (query,) = inference.split_heads(cache.queries, count, layer.heads, width)
        return inference.attention_block(
            layer,
            cache.embedded.reshape(-1, width),
            query,
            keys,
            values,
            cache.pim[:, :-1],
        )

    def _incremental_mask(
        self, session: DecodingSession, width: int, dtype: np.dtype, new: int = 1
    ) -> np.ndarray:
        """Additive ``dtype`` mask rows for the queries of each row's last ``new``
        tokens and the objective.

        ``width`` counts the key columns before the objective's: the
        (possibly left-padded) prefix including the ``new`` tokens.
        Reproduces exactly the rows the full PIM would assign to the last
        positions of the equivalent right-aligned window: visible real keys
        get ``w_h``, left-padding keys and the tokens after a query's own get
        ``NEG_INF``, and the objective column gets the (personalized)
        objective weight for the token queries — ``NEG_INF`` under the
        causal mask — and ``w_h`` for its own.
        """
        padding = np.arange(width + 1) < (width - session.lengths)[:, None]
        # (batch, keys): what every query sees
        keys = np.full(padding.shape, float(self.history_weight), dtype=dtype)
        np.copyto(keys, NEG_INF, where=padding)
        mask = np.repeat(keys[:, None, :], new + 1, axis=1)
        if new > 1:
            later = np.triu(np.ones((new, new), dtype=bool), k=1)
            np.copyto(mask[:, :new, width - new : width], NEG_INF, where=later)
        if self.mask_type == MaskType.CAUSAL:
            mask[:, :new, -1] = NEG_INF
        else:
            weight = float(self.objective_weight * self.objective_logit_scale)
            if self.mask_type == MaskType.PERSONALIZED:
                mask[:, :new, -1] = (session.impressionability * weight)[:, None]
            else:
                mask[:, :new, -1] = weight
        return mask

    # ------------------------------------------------------------------ #
    # Influential interface
    # ------------------------------------------------------------------ #
    def next_step(
        self,
        history: Sequence[int],
        objective: int,
        path_so_far: Sequence[int],
        user_index: int | None = None,
    ) -> int | None:
        sequence = list(history) + list(path_so_far)
        scores = self.score_with_objective_batch([sequence], [objective], [user_index])
        # Avoid degenerate repetition: never re-recommend something the user
        # already saw in this session, except the objective itself.
        scores = mask_session_items(scores, pre_pad_block([sequence]), [objective])[0]
        best = int(np.argmax(scores))
        if not np.isfinite(scores[best]):
            return None
        return best

    def generate_paths_batch(
        self,
        histories: Sequence[Sequence[int]],
        objectives: Sequence[int],
        user_indices: "Sequence[int | None] | None" = None,
        max_length: int = 20,
    ) -> list[list[int]]:
        """Run Algorithm 1 for many ``(history, objective)`` instances.

        Algorithm 1 is the greedy rollout: a width-1, branch-1 beam with no
        completion bonus.  All instances plan in one lockstep
        :class:`~repro.core.beam.BeamSearchPlanner` call — the session-based
        planner the serving stack runs — and the paths equal looping
        :meth:`generate_path` (same greedy argmax and seen-item masking).
        The planner is built once per model, so repeated rollouts register
        no new metrics (two threads racing the first call may each build
        one; either plans the same paths).
        """
        if self._greedy is None:
            self._greedy = BeamSearchPlanner(
                self, beam_width=1, branch_factor=1, objective_bonus=0.0, plan_cache_size=0
            )
        self._greedy.corpus = self._require_fitted()
        return self._greedy.plan_paths_batch(histories, objectives, user_indices, max_length)

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #
    def impressionability_factors(self) -> np.ndarray:
        """The learned ``r_u`` of every user (Figure 8)."""
        self._require_fitted()
        return self._program().impressionability.copy()
