"""Unit coverage of the versioned artifacts and their packers.

A fleet refit commits only when every worker acks the same sha256 for what
it built, so packing must depend on nothing but the fitted state: the same
state packs to the same bytes, and different state to different bytes."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.distributed.artifacts import (
    GENERATOR_STATE,
    MODEL_WEIGHTS,
    Artifact,
    artifacts_from_planner,
    pack_generator,
    pack_state_dict,
)


class TestArtifact:
    def test_checksum_and_meta(self):
        artifact = Artifact("model_weights", 3, identity="('irn', 1)", payload=b"abc")
        assert artifact.sha256 == hashlib.sha256(b"abc").hexdigest()
        assert artifact.meta() == {
            "name": "model_weights",
            "generation": 3,
            "identity": "('irn', 1)",
            "sha256": artifact.sha256,
            "nbytes": 3,
        }


class TestPacking:
    def test_state_dict_packing_is_deterministic(self):
        def state(bias):
            return {
                "layer.weight": np.arange(12, dtype=np.float64).reshape(3, 4),
                "layer.bias": np.array([1.5, bias]),
            }

        packed = pack_state_dict(state(-2.5))
        assert pack_state_dict(state(-2.5)) == packed  # fresh arrays, same bytes
        assert pack_state_dict(state(np.nextafter(-2.5, 0.0))) != packed
        as_float32 = {name: a.astype(np.float32) for name, a in state(-2.5).items()}
        assert pack_state_dict(as_float32) != packed  # the dtype is part of it

    def test_generator_packing_is_deterministic(self, tiny_split):
        from repro.retrieval.cooccurrence import CooccurrenceNeighborGenerator

        def fitted(num_candidates):
            generator = CooccurrenceNeighborGenerator(num_candidates=num_candidates)
            return generator.fit(tiny_split.corpus)

        packed = pack_generator(fitted(8))
        assert pack_generator(fitted(8)) == packed
        assert pack_generator(fitted(9)) != packed


class TestArtifactsFromPlanner:
    def test_neural_retrieval_planner_ships_both_kinds(
        self, tiny_split, remote_irn
    ):
        from repro.core.beam import BeamSearchPlanner
        from repro.retrieval.cooccurrence import CooccurrenceNeighborGenerator

        planner = BeamSearchPlanner(
            remote_irn,
            max_length=5,
            candidate_generator=CooccurrenceNeighborGenerator(num_candidates=8),
        ).fit(tiny_split)
        artifacts = artifacts_from_planner(planner, 2)
        by_name = {artifact.name: artifact for artifact in artifacts}
        assert set(by_name) == {MODEL_WEIGHTS, GENERATOR_STATE}
        assert all(artifact.generation == 2 for artifact in artifacts)
        weights = pack_state_dict(planner.backbone.module.state_dict())
        assert by_name[MODEL_WEIGHTS].meta()["sha256"] == hashlib.sha256(weights).hexdigest()
        assert by_name[MODEL_WEIGHTS].nbytes == len(weights)
        generator = planner.candidate_generator
        assert by_name[GENERATOR_STATE].identity == repr(generator.retrieval_key())
        assert by_name[GENERATOR_STATE].sha256 == (
            hashlib.sha256(pack_generator(generator)).hexdigest()
        )
        # A second planner over the same fitted state agrees on every sha.
        again = artifacts_from_planner(planner, 2)
        assert [a.meta() for a in again] == [a.meta() for a in artifacts]

    def test_stub_planner_ships_nothing(self):
        class _Stub:
            pass

        assert artifacts_from_planner(_Stub(), 1) == []
