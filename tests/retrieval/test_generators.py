"""Candidate-generator contract tests: every backend obeys the protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import resolve_retrieval_spec
from repro.retrieval import (
    CandidateGenerator,
    CooccurrenceNeighborGenerator,
    EmbeddingANNGenerator,
    FullVocabGenerator,
    make_generator,
    retrieval_registry,
)
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
