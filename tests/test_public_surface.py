"""Names outside code depends on, and knobs that must stay gone.

``benchmarks/e2e/tracing.py`` wraps a fixed table of callables by module and
attribute name (``SPAN_TABLE``); a rename in ``src/repro`` would break the
traced benchmark run, not any test, so every row is resolved here the way
the recorder's ``install()`` resolves it.  Planning and serving run one
partition: the constructors and entry points that once took a sharding knob
refuse it as an unexpected argument.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro.core.beam as beam
from repro.core.beam import BeamSearchPlanner
from repro.distributed.remote import RemoteReplicaSet
from repro.evaluation.nextitem import evaluate_next_item
from repro.evaluation.protocol import IRSEvaluationProtocol
from repro.experiments.config import ExperimentConfig
from repro.replica.set import ReplicaSet
from repro.serve.loop import ServingLoop
from repro.serve.queue import RequestQueue
from repro.shard.executor import ShardedExecutor
from repro.shard.topk import stable_topk

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


def _span_table() -> "tuple[tuple[str, str | None, str], ...]":
    """``SPAN_TABLE`` read from the source: importing ``tracing.py`` would
    import the benchmark's own ``driver`` / ``workloads`` modules."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPAN_TABLE" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_TABLE in {TRACING}")


SPAN_TABLE = _span_table()


def test_the_span_table_is_read():
    assert len(SPAN_TABLE) >= 20
    assert ("repro.core.beam", None, "sharded_topk") in SPAN_TABLE


@pytest.mark.parametrize(
    "module_name,owner_name,attr",
    SPAN_TABLE,
    ids=[f"{owner or module.rsplit('.', 1)[1]}.{attr}" for module, owner, attr in SPAN_TABLE],
)
def test_every_span_table_row_resolves(module_name, owner_name, attr):
    module = importlib.import_module(module_name)
    owner = module if owner_name is None else getattr(module, owner_name)
    raw = owner.__dict__[attr]  # defined on the owner itself, not inherited
    if isinstance(raw, (staticmethod, classmethod)):
        raw = raw.__func__
    assert callable(raw)


class _FixedScores:
    """Backbone stub answering every batch with one fixed score matrix."""

    def __init__(self, scores: np.ndarray) -> None:
        self.scores = scores

    def score_with_objective(self, sequence, objective, user_index=None):
        raise AssertionError("the batched scorer is the one that must be used")

    def score_with_objective_batch(self, sequences, objectives, user_indices=None):
        return self.scores


def test_the_planner_selects_through_the_pinned_name(monkeypatch):
    """The beam looks ``sharded_topk`` up in its module at call time, so
    wrapping that one name (as the traced run does) sees every selection:
    one call per depth over the whole ``(rows, vocab)`` block."""
    assert beam.sharded_topk is stable_topk
    calls = []

    def recording(values, k):
        calls.append((values.shape, k))
        return stable_topk(values, k)

    monkeypatch.setattr(beam, "sharded_topk", recording)
    scores = np.log(np.linspace(1.0, 2.0, 14)).reshape(2, 7)
    planner = BeamSearchPlanner(_FixedScores(scores), branch_factor=3, plan_cache_size=0)
    planner.corpus = object()  # fitted: the stub needs no corpus
    plans = planner.plan_paths_batch([[1], [2]], [3, 4], max_length=1)
    assert calls == [((2, 7), 3)]
    # the best unseen item, unless the completion bonus lifts the objective
    assert plans == [[6], [4]]


#: (entry point, an argument it took while planning or serving was sharded)
DELETED_ARGUMENTS = [
    (BeamSearchPlanner, "num_workers"),
    (BeamSearchPlanner, "shard_backend"),
    (BeamSearchPlanner, "vocab_shards"),
    (ServingLoop, "num_queues"),
    (RequestQueue, "shard"),
    (ReplicaSet, "num_queues"),
    (RemoteReplicaSet, "num_queues"),
    (IRSEvaluationProtocol, "shard_backend"),
    (evaluate_next_item, "shard_backend"),
    (ExperimentConfig, "shard_backend"),
    (ExperimentConfig, "vocab_shards"),
    (ShardedExecutor, "backend"),
]


@pytest.mark.parametrize(
    "target,name",
    DELETED_ARGUMENTS,
    ids=[f"{target.__name__}-{name}" for target, name in DELETED_ARGUMENTS],
)
def test_a_deleted_argument_is_refused(target, name):
    """Bound, not called: a call that accepted it would start real work."""
    with pytest.raises(TypeError, match=name):
        inspect.signature(target).bind_partial(**{name: 2})