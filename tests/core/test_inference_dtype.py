"""The opt-in float32 inference mode: resolution and parity.

Float32 is a property of the compiled inference program
(:mod:`repro.nn.inference`): weights, tables and K/V arenas are cast once at
compile, masks where they are used; the module's parameters and the autograd
graph stay float64, so scores differ from the float64 reference by
single-precision roundoff.  The documented tolerance
(see :func:`repro.nn.tensor.resolve_inference_dtype`) is ``5e-4`` absolute
on logits; beam plans must be identical at the default beam widths on the
test corpus (argmax/top-k selections sit far enough from ties — a corpus
with near-tied candidates could flip, which is why the tolerance is
documented on scores, not plans, for other data).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.nn.tensor import INFERENCE_DTYPE_ENV, resolve_inference_dtype
from repro.utils.exceptions import ConfigurationError

LOGIT_TOL = 5e-4


class TestResolveInferenceDtype:
    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv(INFERENCE_DTYPE_ENV, raising=False)
        assert resolve_inference_dtype() == np.float64

    def test_explicit_values(self):
        assert resolve_inference_dtype("float32") == np.float32
        assert resolve_inference_dtype("FLOAT64") == np.float64
        assert resolve_inference_dtype(np.float32) == np.float32
        assert resolve_inference_dtype(np.dtype(np.float64)) == np.float64

    def test_environment_resolution(self, monkeypatch):
        monkeypatch.setenv(INFERENCE_DTYPE_ENV, "float32")
        assert resolve_inference_dtype() == np.float32
        monkeypatch.setenv(INFERENCE_DTYPE_ENV, "")
        assert resolve_inference_dtype() == np.float64

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_inference_dtype("float16")
        with pytest.raises(ConfigurationError):
            resolve_inference_dtype(np.int64)
        monkeypatch.setenv(INFERENCE_DTYPE_ENV, "bfloat16")
        with pytest.raises(ConfigurationError):
            resolve_inference_dtype()

    def test_explicit_value_beats_environment(self, monkeypatch):
        monkeypatch.setenv(INFERENCE_DTYPE_ENV, "float32")
        assert resolve_inference_dtype("float64") == np.float64


@pytest.fixture(scope="module")
def parity_irn(tiny_split):
    """Single-layer IRN (incremental decoding exact under the PIM)."""
    return IRN(
        embedding_dim=12,
        user_dim=4,
        num_heads=2,
        num_layers=1,
        epochs=2,
        batch_size=32,
        max_sequence_length=16,
        seed=0,
    ).fit(tiny_split)


def contexts_for(split, count: int = 4):
    instances = split.test[:count]
    sequences = [list(inst.history) for inst in instances]
    users = [inst.user_index for inst in instances]
    objectives = [inst.target for inst in instances]
    return sequences, objectives, users


class TestIRNConstruction:
    def test_ctor_kwarg_and_env(self, monkeypatch):
        assert IRN().inference_dtype == np.float64
        assert IRN(inference_dtype="float32").inference_dtype == np.float32
        monkeypatch.setenv(INFERENCE_DTYPE_ENV, "float32")
        assert IRN().inference_dtype == np.float32
        assert IRN(inference_dtype="float64").inference_dtype == np.float64


class TestFloat32ScoringParity:
    def test_score_with_objective_batch_within_tolerance(self, parity_irn, tiny_split):
        sequences, objectives, users = contexts_for(tiny_split)
        reference = parity_irn.score_with_objective_batch(sequences, objectives, users)
        parity_irn.inference_dtype = resolve_inference_dtype("float32")
        try:
            approx = parity_irn.score_with_objective_batch(sequences, objectives, users)
        finally:
            parity_irn.inference_dtype = resolve_inference_dtype("float64")
        finite = np.isfinite(reference)
        assert np.array_equal(finite, np.isfinite(approx))
        np.testing.assert_allclose(
            approx[finite], reference[finite], rtol=0, atol=LOGIT_TOL
        )
        assert np.max(np.abs(approx[finite] - reference[finite])) > 0  # really ran f32

    def test_each_dtype_runs_its_own_program(self, parity_irn, tiny_split):
        """float64 → float32 → float64 on one model: the third answer is the
        first bit for bit (no program is reused across dtypes)."""
        sequences, objectives, users = contexts_for(tiny_split)
        answers = []
        try:
            for name in ("float64", "float32", "float64"):
                parity_irn.inference_dtype = resolve_inference_dtype(name)
                assert parity_irn._program().dtype == np.dtype(name)
                answers.append(
                    parity_irn.score_with_objective_batch(sequences, objectives, users)
                )
        finally:
            parity_irn.inference_dtype = resolve_inference_dtype("float64")
        assert np.array_equal(answers[0], answers[2])
        assert not np.array_equal(answers[0], answers[1])
        assert all(scores.dtype == np.float64 for scores in answers)  # the API's dtype

    def test_score_next_batch_within_tolerance(self, parity_irn, tiny_split):
        sequences, _, users = contexts_for(tiny_split)
        reference = parity_irn.score_next_batch(sequences, users)
        parity_irn.inference_dtype = resolve_inference_dtype("float32")
        try:
            approx = parity_irn.score_next_batch(sequences, users)
        finally:
            parity_irn.inference_dtype = resolve_inference_dtype("float64")
        finite = np.isfinite(reference)
        np.testing.assert_allclose(
            approx[finite], reference[finite], rtol=0, atol=LOGIT_TOL
        )

    def test_incremental_decoding_within_tolerance(self, parity_irn, tiny_split):
        """f32 sessions track the f64 sessions step for step (same tokens)."""
        sequences, objectives, users = contexts_for(tiny_split, count=3)

        ref_scores, ref_session = parity_irn.begin_decoding_session(
            sequences, objectives, users
        )
        assert ref_session.incremental
        steps = [np.argmax(ref_scores, axis=1)]
        ref_trace = [ref_scores]
        for _ in range(3):
            ref_scores = parity_irn.advance_decoding_session(ref_session, steps[-1])
            ref_trace.append(ref_scores)
            steps.append(np.argmax(ref_scores, axis=1))

        parity_irn.inference_dtype = resolve_inference_dtype("float32")
        try:
            f32_scores, f32_session = parity_irn.begin_decoding_session(
                sequences, objectives, users
            )
            assert f32_session.state.layers[0].dtype == np.float32
            f32_trace = [f32_scores]
            for new_items in steps[:-1]:
                f32_trace.append(
                    parity_irn.advance_decoding_session(f32_session, new_items)
                )
        finally:
            parity_irn.inference_dtype = resolve_inference_dtype("float64")

        for reference, approx in zip(ref_trace, f32_trace):
            finite = np.isfinite(reference)
            np.testing.assert_allclose(
                approx[finite], reference[finite], rtol=0, atol=LOGIT_TOL
            )

    def test_beam_plans_identical_at_default_widths(self, parity_irn, tiny_split):
        sequences, objectives, users = contexts_for(tiny_split)
        planner = BeamSearchPlanner(parity_irn, plan_cache_size=0).fit(tiny_split)
        reference = planner.plan_paths_batch(sequences, objectives, users, max_length=6)
        parity_irn.inference_dtype = resolve_inference_dtype("float32")
        try:
            f32_planner = BeamSearchPlanner(parity_irn, plan_cache_size=0).fit(tiny_split)
            approx = f32_planner.plan_paths_batch(
                sequences, objectives, users, max_length=6
            )
        finally:
            parity_irn.inference_dtype = resolve_inference_dtype("float64")
        assert approx == reference
