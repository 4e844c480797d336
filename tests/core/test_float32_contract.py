"""The float32 contract: IRN plans on a float32 program, bounded in the paper's terms.

Training and the autograd graph stay float64; :func:`repro.nn.inference.compile`
casts the fitted weights once into the float32 program every IRN scorer runs.
Against a float64 program of the same weights, on the test corpora and on the
fast profile's Table III / Table V instance sets (the instances and models
``python -m repro.cli table3 / table5 --profile fast`` evaluates):

* logits stay within ``5e-4`` at every prefix of the greedy plans, with and
  without the objective (the decoding sessions the beam plans through are
  held to the same bound in
  ``test_shared_history_decoding.py::TestFloat32Sessions``);
* greedy (Algorithm 1) plans are identical;
* default-width beam plans are identical.

Plans are compared, not only logits, because a plan is what the paper's
metrics (SR, IoI, IoR, log-PPL) read: identical plans leave them unchanged.
A corpus with near-tied candidates could flip a plan, which is why the bound
is claimed on these sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.core.pim import MaskType
from repro.evaluation.protocol import IRSEvaluationProtocol
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import ExperimentPipeline
from tests.core.conftest import on_float64

LOGIT_TOL = 5e-4


@dataclass
class Case:
    irn: IRN
    protocol: IRSEvaluationProtocol


def tiny_irn(split, num_layers: int) -> IRN:
    return IRN(
        embedding_dim=12,
        user_dim=4,
        num_heads=2,
        num_layers=num_layers,
        epochs=2,
        batch_size=32,
        max_sequence_length=16,
        seed=0,
    ).fit(split)


CASES = (
    "tiny-1-layer",
    "tiny-2-layer",
    "fast-type1-causal",
    "fast-type2-objective",
    "fast-type3-personalized",
)
FAST_MASKS = {
    "fast-type1-causal": MaskType.CAUSAL,
    "fast-type2-objective": MaskType.OBJECTIVE,
    "fast-type3-personalized": MaskType.PERSONALIZED,
}


@pytest.fixture(scope="module")
def cases(tiny_split, markov_evaluator):
    built: dict = {}
    pipeline = ExperimentPipeline(ExperimentConfig.fast("movielens", seed=0))
    tiny_protocol = IRSEvaluationProtocol(
        tiny_split, markov_evaluator, max_length=8, min_objective_interactions=2
    )

    def get(name: str) -> Case:
        if name not in built:
            if name in FAST_MASKS:  # Table V's three models; Type 3 is Table III's IRN
                built[name] = Case(pipeline.irn(mask_type=FAST_MASKS[name]), pipeline.protocol())
            else:
                num_layers = 1 if name == "tiny-1-layer" else 2
                built[name] = Case(tiny_irn(tiny_split, num_layers), tiny_protocol)
        return built[name]

    return get


def greedy_paths(case: Case) -> "list[tuple[int, ...]]":
    return [record.path for record in case.protocol.generate_records(case.irn)]


def beam_paths(case: Case) -> "list[tuple[int, ...]]":
    planner = BeamSearchPlanner(case.irn, plan_cache_size=0).fit(case.protocol.split)
    return [record.path for record in case.protocol.generate_records(planner)]


@pytest.mark.parametrize("name", CASES)
class TestFloat32Contract:
    def test_logits_within_tolerance_at_every_planned_context(self, cases, name):
        case = cases(name)
        assert case.irn._program().dtype == np.float32
        with on_float64(case.irn):
            records = case.protocol.generate_records(case.irn)
        # every root and every prefix of its float64 greedy plan
        rows = [
            (list(record.history) + list(record.path[:depth]), record.objective, record.user_index)
            for record in records
            for depth in range(len(record.path) + 1)
        ]
        args = ([row[0] for row in rows], [row[1] for row in rows], [row[2] for row in rows])
        for score in (  # objective-conditioned (planning) and objective-free (Table IV)
            lambda: case.irn.score_with_objective_batch(*args),
            lambda: case.irn.score_next_batch(args[0], args[2]),
        ):
            approx = score()
            with on_float64(case.irn):
                reference = score()
            finite = np.isfinite(reference)
            assert np.array_equal(finite, np.isfinite(approx))
            np.testing.assert_allclose(
                approx[finite], reference[finite], rtol=0, atol=LOGIT_TOL
            )
            assert np.abs(approx[finite] - reference[finite]).max() > 0  # really two programs

    def test_greedy_plans_identical(self, cases, name):
        case = cases(name)
        approx = greedy_paths(case)
        with on_float64(case.irn):
            reference = greedy_paths(case)
        assert approx == reference
        assert any(reference)

    def test_default_width_beam_plans_identical(self, cases, name):
        case = cases(name)
        approx = beam_paths(case)
        with on_float64(case.irn):
            reference = beam_paths(case)
        assert approx == reference
        assert any(reference)


class TestOneDtype:
    def test_the_planning_program_and_its_arenas_are_float32(self, cases):
        irn = cases("tiny-1-layer").irn
        program = irn._program()
        assert program.dtype == np.float32
        assert all(layer.wqkv.dtype == np.float32 for layer in program.layers)
        _, session = irn.begin_decoding_session([[3, 9, 4]], [5], [0])
        assert session.incremental and session.state.layers[0].dtype == np.float32
        # masks are built in the program's dtype: no layer casts them
        items = np.asarray([[3, 9, 4, 5]])
        assert irn._pim(program, items, np.asarray([0])).dtype == np.float32
        assert irn._incremental_mask(session, session.width, program.dtype).dtype == np.float32
        # the module trains and the graph forward runs in float64
        assert all(parameter.data.dtype == np.float64 for parameter in irn.module.parameters())

    def test_no_dtype_option(self):
        with pytest.raises(TypeError):
            IRN(inference_dtype="float64")
        assert not hasattr(IRN(), "inference_dtype")
