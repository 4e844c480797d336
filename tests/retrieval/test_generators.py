"""Candidate-generator contract tests: every backend obeys the protocol."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import resolve_retrieval_spec
from repro.retrieval import (
    CandidateGenerator,
    CooccurrenceNeighborGenerator,
    EmbeddingANNGenerator,
    FullVocabGenerator,
    make_generator,
    retrieval_registry,
)
from repro.shard.topk import stable_topk
from repro.utils.exceptions import ConfigurationError, NotFittedError


class _ZeroVectors:
    """Embedding stub whose vectors give the ANN query nothing to anchor on."""

    def __init__(self, vocab_size: int, dim: int = 8) -> None:
        self.vectors = np.zeros((vocab_size, dim), dtype=np.float64)


class TestProtocol:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: FullVocabGenerator(),
            lambda: CooccurrenceNeighborGenerator(num_candidates=16),
            lambda: EmbeddingANNGenerator(num_candidates=16, embedding_dim=8),
        ],
        ids=["full", "cooccurrence", "ann"],
    )
    def test_candidates_sorted_unique_contain_objective(
        self, factory, tiny_corpus, contexts
    ):
        generator = factory().fit(tiny_corpus)
        vocab = tiny_corpus.vocab.size
        for history, objective, user in contexts:
            cands = generator.candidates(history, objective, user)
            if cands is None:
                continue
            assert cands.dtype == np.int64
            assert np.array_equal(cands, np.unique(cands))  # sorted + unique
            assert cands[0] >= 1 and cands[-1] < vocab
            assert objective in cands

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: CooccurrenceNeighborGenerator(num_candidates=16),
            lambda: EmbeddingANNGenerator(num_candidates=16, embedding_dim=8),
        ],
        ids=["cooccurrence", "ann"],
    )
    def test_deterministic_for_fixed_fit(self, factory, tiny_corpus, contexts):
        generator = factory().fit(tiny_corpus)
        history, objective, user = contexts[0]
        first = generator.candidates(history, objective, user)
        second = generator.candidates(history, objective, user)
        assert first is not None
        assert np.array_equal(first, second)

    def test_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            FullVocabGenerator().candidates([1, 2], 3)

    def test_objective_out_of_range_rejected(self, tiny_corpus):
        generator = FullVocabGenerator().fit(tiny_corpus)
        with pytest.raises(ConfigurationError):
            generator.candidates([1, 2], 0)
        with pytest.raises(ConfigurationError):
            generator.candidates([1, 2], tiny_corpus.vocab.size)

    def test_bad_num_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            CooccurrenceNeighborGenerator(num_candidates=0)

    def test_fit_generation_advances(self, tiny_corpus):
        generator = FullVocabGenerator()
        assert generator.fit_generation == 0
        generator.fit(tiny_corpus)
        key_one = generator.retrieval_key()
        generator.fit(tiny_corpus)
        key_two = generator.retrieval_key()
        assert generator.fit_generation == 2
        assert key_one != key_two
        assert key_one[0] == key_two[0]  # config identity is stable

    def test_config_key_distinguishes_knobs(self):
        narrow = CooccurrenceNeighborGenerator(num_candidates=16)
        wide = CooccurrenceNeighborGenerator(num_candidates=64)
        assert narrow.config_key() != wide.config_key()
        assert narrow.config_key() != EmbeddingANNGenerator(num_candidates=16).config_key()


class TestFullVocab:
    def test_every_real_item(self, tiny_corpus, contexts):
        generator = FullVocabGenerator().fit(tiny_corpus)
        history, objective, user = contexts[0]
        cands = generator.candidates(history, objective, user)
        assert np.array_equal(
            cands, np.arange(1, tiny_corpus.vocab.size, dtype=np.int64)
        )


class TestCooccurrenceGenerator:
    def test_respects_num_candidates(self, tiny_corpus, contexts):
        generator = CooccurrenceNeighborGenerator(num_candidates=8).fit(tiny_corpus)
        for history, objective, user in contexts:
            cands = generator.candidates(history, objective, user)
            assert cands is not None
            # +1: the objective is force-included even when not shortlisted.
            assert cands.size <= 9

    def test_neighbors_reflect_cooccurrence(self, tiny_corpus, contexts):
        generator = CooccurrenceNeighborGenerator(
            num_candidates=16, expansion_hops=1
        ).fit(tiny_corpus)
        history, objective, user = contexts[0]
        cands = generator.candidates(history, objective, user)
        assert cands is not None
        neighbors = generator._neighbors
        weights = generator._weights
        seeds = set(int(i) for i in history[-generator.history_window :]) | {objective}
        reachable = set()
        for seed in seeds:
            live = weights[seed] > 0
            reachable.update(int(i) for i in neighbors[seed][live])
        assert set(int(i) for i in cands) <= reachable | {objective}


def _looped_candidates(generator, history, objective):
    """``CooccurrenceNeighborGenerator._candidates`` as first written: a dict
    of touched items, filled by a per-item Python loop in every hop."""
    vocab = generator._neighbors.shape[0]
    recent = [int(item) for item in history[-generator.history_window :]]
    seeds = {item for item in recent if 1 <= item < vocab}
    seeds.add(int(objective))
    frontier = np.fromiter(sorted(seeds), dtype=np.int64)
    scores = {}
    for hop in range(generator.expansion_hops):
        hop_weight = 1.0 / (hop + 1)
        neighbor_ids = generator._neighbors[frontier].ravel()
        neighbor_weights = generator._weights[frontier].ravel()
        live = neighbor_weights > 0
        neighbor_ids = neighbor_ids[live]
        neighbor_weights = neighbor_weights[live] * hop_weight
        if neighbor_ids.size == 0:
            break
        unique, inverse = np.unique(neighbor_ids, return_inverse=True)
        summed = np.bincount(inverse, weights=neighbor_weights, minlength=unique.size)
        next_frontier = []
        for item, weight in zip(unique, summed):
            item = int(item)
            if item not in scores:
                next_frontier.append(item)
            scores[item] = scores.get(item, 0.0) + float(weight)
        if len(scores) >= generator.num_candidates:
            break
        frontier = np.asarray(next_frontier, dtype=np.int64)
        if frontier.size == 0:
            break
    if not scores:
        return None
    items = np.fromiter(scores.keys(), dtype=np.int64)
    weights = np.fromiter(scores.values(), dtype=np.float64)
    item_order = np.argsort(items, kind="stable")
    items, weights = items[item_order], weights[item_order]
    top, _ = stable_topk(weights[None, :], min(generator.num_candidates, items.size))
    return items[top[0]]


@st.composite
def random_corpora(draw):
    """A small random corpus (items 1..V-1, some never seen), knobs and queries."""
    vocab = draw(st.integers(min_value=5, max_value=30))
    seen = st.integers(min_value=1, max_value=vocab - 3)  # the top two ids stay cold
    sequences = draw(st.lists(st.lists(seen, min_size=2, max_size=12), min_size=1, max_size=8))
    knobs = dict(
        num_candidates=draw(st.integers(min_value=1, max_value=12)),  # small: the early stop
        window=draw(st.integers(min_value=1, max_value=3)),
        neighbors_per_item=draw(st.integers(min_value=1, max_value=6)),
        expansion_hops=draw(st.integers(min_value=1, max_value=4)),
        history_window=draw(st.integers(min_value=1, max_value=6)),
    )
    item = st.integers(min_value=1, max_value=vocab - 1)
    queries = draw(st.lists(st.tuples(st.lists(item, max_size=8), item), min_size=1, max_size=6))
    return vocab, sequences, knobs, queries


class TestCooccurrenceAccumulation:
    @settings(max_examples=150, deadline=None)
    @given(case=random_corpora())
    def test_array_accumulation_equals_the_per_item_loop(self, case):
        vocab, sequences, knobs, queries = case
        corpus = SimpleNamespace(vocab=SimpleNamespace(size=vocab), user_sequences=sequences)
        if all(len(set(sequence)) < 2 for sequence in sequences):
            sequences.append([1, 2])  # at least one co-occurrence to fit on
        generator = CooccurrenceNeighborGenerator(**knobs).fit(corpus)
        # the last query is seeded by never-seen items only: cold, ``None``
        for history, objective in queries + [([vocab - 1], vocab - 2)]:
            expected = _looped_candidates(generator, history, objective)
            shortlist = generator._candidates(history, objective, None)
            if expected is None:
                assert shortlist is None
            else:
                assert shortlist.dtype == np.int64
                assert shortlist.tolist() == expected.tolist()
        assert expected is None


def _finish(raw, objective, vocab):
    """The protocol's finishing of one raw set: real items plus the objective, sorted unique."""
    return np.unique(np.append(raw[(raw >= 1) & (raw < vocab)], objective))


@st.composite
def cooccurrence_batches(draw):
    """A hand-built neighbour index with tie-heavy weights, and a batch of
    contexts: histories up to twice the history window, items whose rows are
    empty (the top two ids: a context seeded by them alone is cold), and
    knobs under which many contexts stop after their first hop."""
    vocab = draw(st.integers(min_value=5, max_value=25))
    m = draw(st.integers(min_value=1, max_value=5))
    cells = dict(min_size=vocab * m, max_size=vocab * m)
    weights = np.asarray(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0]), **cells)))
    weights = weights.reshape(vocab, m)
    weights[0] = weights[-2:] = 0.0
    neighbors = np.asarray(
        draw(st.lists(st.integers(min_value=1, max_value=vocab - 3), **cells))
    ).reshape(vocab, m)
    neighbors[weights == 0] = 0
    knobs = dict(
        num_candidates=draw(st.integers(min_value=1, max_value=12)),
        expansion_hops=draw(st.integers(min_value=1, max_value=4)),
        history_window=draw(st.integers(min_value=1, max_value=5)),
    )
    item = st.integers(min_value=1, max_value=vocab - 1)
    contexts = draw(st.lists(st.tuples(st.lists(item, max_size=10), item), min_size=1, max_size=8))
    contexts.append(([vocab - 1] * draw(st.integers(min_value=0, max_value=3)), vocab - 2))
    return vocab, neighbors, weights, knobs, contexts


class _PartlyZeroVectors:
    """Random item vectors, zero for the top five ids (a cold ANN query)."""

    def __init__(self, vocab_size: int, dim: int = 8) -> None:
        self.vectors = np.random.default_rng(0).standard_normal((vocab_size, dim))
        self.vectors[-5:] = 0.0


class TestBatchEqualsLoop:
    """``candidates_batch`` answers what looping ``candidates`` answers."""

    @staticmethod
    def check(generator, contexts) -> "list[np.ndarray | None]":
        histories = [history for history, _ in contexts]
        objectives = [objective for _, objective in contexts]
        users = list(range(len(contexts)))
        batch = generator.candidates_batch(histories, objectives, users)
        assert len(batch) == len(contexts)
        for got, history, objective, user in zip(batch, histories, objectives, users):
            alone = generator.candidates(history, objective, user)
            if alone is None:
                assert got is None
            else:
                assert got.dtype == np.int64 and got.tolist() == alone.tolist()
        return batch

    @settings(max_examples=200, deadline=None)
    @given(case=cooccurrence_batches())
    def test_cooccurrence(self, case):
        vocab, neighbors, weights, knobs, contexts = case
        generator = CooccurrenceNeighborGenerator(**knobs)
        generator.vocab_size, generator._neighbors, generator._weights = vocab, neighbors, weights
        batch = self.check(generator, contexts)
        # and each set is the one the per-item loop the generator began as finds
        for got, (history, objective) in zip(batch, contexts):
            expected = _looped_candidates(generator, history, objective)
            if expected is None:
                assert got is None
            else:
                assert got.tolist() == _finish(expected, objective, vocab).tolist()
        assert batch[-1] is None  # seeded by empty rows only

    @pytest.mark.parametrize(
        "factory",
        [
            lambda vocab: FullVocabGenerator(),
            lambda vocab: EmbeddingANNGenerator(
                num_candidates=6, embedding_model=_PartlyZeroVectors(vocab)
            ),
            lambda vocab: EmbeddingANNGenerator(
                num_candidates=6,
                coarse_threshold=8,
                nprobe=2,
                embedding_model=_PartlyZeroVectors(vocab),
            ),
        ],
        ids=["full", "ann-brute-force", "ann-coarse"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_full_and_ann(self, tiny_corpus, factory, data):
        vocab = tiny_corpus.vocab.size
        generator = factory(vocab).fit(tiny_corpus)
        item = st.integers(min_value=1, max_value=vocab - 1)
        contexts = data.draw(
            st.lists(st.tuples(st.lists(item, max_size=20), item), min_size=1, max_size=8)
        )
        contexts.append(([vocab - 1, vocab - 2], vocab - 3))  # zero vectors only
        batch = self.check(generator, contexts)
        assert (batch[-1] is None) == (generator.name == "ann")


class _Raw(CandidateGenerator):
    """Answers each objective with a fixed raw set: out-of-range ids,
    duplicates and any order, or ``None``."""

    name = "raw"
    RAW = {3: [9, 0, 4, 4, -2, 10, 1], 4: None, 5: [], 6: [2, 1]}

    def _fit(self, corpus, vocab_size: int) -> None:
        pass

    def _candidates(self, history, objective, user_index):
        raw = self.RAW[objective]
        return None if raw is None else np.asarray(raw)


def test_a_batch_finishes_every_raw_set_on_its_own():
    generator = _Raw().fit(SimpleNamespace(vocab=SimpleNamespace(size=10)))
    sets = generator.candidates_batch([[1]] * 5, [3, 4, 5, 6, 3])
    assert [None if s is None else s.tolist() for s in sets] == [
        [1, 3, 4, 9], None, [5], [1, 2, 6], [1, 3, 4, 9]
    ]
    with pytest.raises(ConfigurationError, match="objective 10"):
        generator.candidates_batch([[1], [1]], [3, 10])


class TestANNGenerator:
    def test_coarse_index_built_past_threshold(self, tiny_corpus, contexts):
        generator = EmbeddingANNGenerator(
            num_candidates=12, embedding_dim=8, coarse_threshold=8, nprobe=2
        ).fit(tiny_corpus)
        assert generator._centroids is not None
        history, objective, user = contexts[0]
        cands = generator.candidates(history, objective, user)
        assert cands is not None
        assert objective in cands
        assert cands.size <= 13

    def test_brute_force_below_threshold(self, tiny_corpus, contexts):
        generator = EmbeddingANNGenerator(
            num_candidates=12, embedding_dim=8, coarse_threshold=10_000
        ).fit(tiny_corpus)
        assert generator._centroids is None
        history, objective, user = contexts[0]
        assert generator.candidates(history, objective, user) is not None

    def test_zero_query_falls_back(self, tiny_corpus, contexts):
        generator = EmbeddingANNGenerator(
            num_candidates=12,
            embedding_model=_ZeroVectors(tiny_corpus.vocab.size),
        ).fit(tiny_corpus)
        history, objective, user = contexts[0]
        assert generator.candidates(history, objective, user) is None

    def test_unknown_embedding_rejected(self):
        with pytest.raises(ConfigurationError):
            EmbeddingANNGenerator(embedding="bogus")


class TestSpecResolution:
    def test_known_specs(self):
        assert resolve_retrieval_spec(None) == "none"
        assert resolve_retrieval_spec("NONE") == "none"
        assert resolve_retrieval_spec("ann") == "ann"

    def test_unknown_spec_lists_known(self):
        with pytest.raises(ConfigurationError, match="ann"):
            resolve_retrieval_spec("hnsw")

    def test_make_generator(self):
        assert make_generator("none") is None
        assert isinstance(make_generator("full"), FullVocabGenerator)
        ann = make_generator("ann", num_candidates=32)
        assert isinstance(ann, EmbeddingANNGenerator)
        assert ann.num_candidates == 32
        assert isinstance(
            make_generator("cooccurrence"), CooccurrenceNeighborGenerator
        )

    def test_registry_names(self):
        for name in ("full", "ann", "cooccurrence"):
            assert issubclass(retrieval_registry.get(name), CandidateGenerator)
