"""Names outside code depends on, and knobs that must stay gone.

``benchmarks/e2e/tracing.py`` wraps a fixed table of callables by module and
attribute name (``SPAN_TABLE``); a rename in ``src/repro`` would break the
traced benchmark run, not any test, so every row is resolved here the way
the recorder's ``install()`` resolves it — and so is every name the
benchmark modules import from ``repro``, and the one adapter shape they
subclass; so is every name a ``repro`` module lists in ``__all__``, which
a deletion must take out of that list too.  Planning and serving run one
partition: the constructors and entry points that once took a sharding knob
refuse it as an unexpected argument.  ``nn/`` holds the training graph plus
one compiled inference program: attention takes no ``fused=``, and no code
outside the tensor engine forks on grad mode.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.core.beam as beam
from repro.cache.kv import DecodingState, LayerKVCache
from repro.core.beam import BeamSearchPlanner
from repro.distributed.remote import RemoteReplicaSet
from repro.evaluation.nextitem import evaluate_next_item
from repro.evaluation.protocol import IRSEvaluationProtocol
from repro.experiments.config import ExperimentConfig
from repro.nn.attention import MultiHeadAttention, scaled_dot_product_attention
from repro.nn.inference import Program
from repro.serve.api import PlanRequest
from repro.serve.loop import ServingLoop
from repro.serve.queue import RequestQueue
from repro.shard.executor import ShardedExecutor
from repro.shard.topk import stable_topk
from repro.tenant import TenantBinding, TenantRegistry
from repro.tenant.adapters import KindAdapter
from tests.stub_sessions import StubSessions

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "benchmarks" / "e2e"
TRACING = BENCHMARK / "tracing.py"
SOURCE = ROOT / "src" / "repro"


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


def _benchmark_imports() -> "list[tuple[str, str, str]]":
    """``(file, module, name)`` of every ``from repro… import name`` in the
    benchmark modules, function-level imports included, read by AST."""
    found = []
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


BENCHMARK_IMPORTS = _benchmark_imports()


def test_the_benchmark_imports_are_read():
    assert ("tracing.py", "repro.shard.topk", "stable_topk") in BENCHMARK_IMPORTS
    assert ("workloads.py", "repro.tenant.adapters", "KindAdapter") in BENCHMARK_IMPORTS


@pytest.mark.parametrize(
    "path,module_name,name",
    BENCHMARK_IMPORTS,
    ids=[f"{path}:{module}.{name}" for path, module, name in BENCHMARK_IMPORTS],
)
def test_every_benchmark_import_resolves(path, module_name, name):
    module = importlib.import_module(module_name)
    if not hasattr(module, name):  # a submodule the package does not import
        importlib.import_module(f"{module_name}.{name}")


class _CounterProbeShape(KindAdapter):
    """Shaped like ``CounterProbe`` in ``benchmarks/e2e/workloads.py``: only
    ``kinds``, ``model()`` and the positional ``_answer``, and no
    ``super().__init__()``."""

    kinds = ("plan_paths",)

    def __init__(self, counters) -> None:
        self._counters = counters
        self.calls = []

    def model(self):
        return self._counters

    def _answer(self, kind, history, objective, path_so_far, user_index, max_length):
        self.calls.append((kind, history, objective, path_so_far, user_index, max_length))
        return list(self._counters)


def test_a_counter_probe_answers_a_plan_request_through_a_tenanted_loop():
    """``fleet_mixed`` reads its worker counters through such a probe."""
    probe = _CounterProbeShape([3, 1, 4])
    registry = TenantRegistry()
    registry.add("probe", probe)
    with ServingLoop(None, tenants=registry) as loop:
        request = PlanRequest(history=[5, 6], objective=7, user_index=2, tenant="probe")
        response = loop.serve(request).result(timeout=30)
    assert response.answer == [3, 1, 4]
    assert probe.calls == [("plan_paths", (5, 6), 7, (), 2, None)]


class _FixedScores(StubSessions):
    """Backbone stub answering every batch with one fixed score matrix."""

    def __init__(self, scores: np.ndarray) -> None:
        self.scores = scores

    def score_rows(self, sequences, objectives, user_indices):
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


#: (entry point, an argument it took while planning or serving was sharded,
#: while attention had a fused no-grad twin, or while the K/V arena had a
#: second growth mode and the projection a shared-shortlist form)
DELETED_ARGUMENTS = [
    (BeamSearchPlanner, "num_workers"),
    (BeamSearchPlanner, "shard_backend"),
    (BeamSearchPlanner, "vocab_shards"),
    (ServingLoop, "num_queues"),
    (RequestQueue, "shard"),
    (RemoteReplicaSet, "num_queues"),
    (IRSEvaluationProtocol, "shard_backend"),
    (evaluate_next_item, "shard_backend"),
    (ExperimentConfig, "shard_backend"),
    (ExperimentConfig, "vocab_shards"),
    (ShardedExecutor, "backend"),
    (scaled_dot_product_attention, "fused"),
    (MultiHeadAttention.forward, "fused"),
    (LayerKVCache, "growth"),
    (DecodingState, "growth"),
    (Program.project, "items"),
    (TenantRegistry.add, "max_inflight"),
    (TenantRegistry.add, "admission_policy"),
    (TenantBinding, "max_inflight"),
    (TenantBinding, "admission_policy"),
    (RemoteReplicaSet.refit, "tenants"),
    (ServingLoop.refit, "tenants"),
]


@pytest.mark.parametrize(
    "target,name",
    DELETED_ARGUMENTS,
    ids=[f"{target.__qualname__}-{name}" for target, name in DELETED_ARGUMENTS],
)
def test_a_deleted_argument_is_refused(target, name):
    """Bound, not called: a call that accepted it would start real work."""
    with pytest.raises(TypeError, match=name):
        inspect.signature(target).bind_partial(**{name: 2})


def test_the_in_process_fleet_is_gone():
    """Two serving front-ends: a loop refits itself, and the fleet core is
    the process fleet's own, with no base class whose hooks it overrides."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.replica.set")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.replica.refit")
    import repro.replica

    for name in ("ReplicaSet", "RefitCoordinator", "RefitHandle", "schedule_refit"):
        assert not hasattr(repro.replica, name)
    assert RemoteReplicaSet.__mro__[1:] == ServingLoop.__mro__[1:]


def test_the_standby_fleet_is_gone():
    """One refit path: fleet workers refit in place through their own
    loops, so no standby generation, no archive of retired ones and no
    artifact shipping is left to reach."""
    import repro.distributed
    from repro.distributed.wire import FrameType

    for name in ("archived_stats", "all_replicas", "_install"):
        assert not hasattr(RemoteReplicaSet, name)
    assert not hasattr(repro.distributed, "ArtifactRegistry")
    for name in ("INSTALL_ARTIFACT", "ARTIFACT_ACK"):
        assert not hasattr(FrameType, name)

class _GradModeReaders(ast.NodeVisitor):
    """The enclosing function (or ``"<module>"``) of every ``is_grad_enabled``
    a module names: a call, an attribute read or an import."""

    def __init__(self) -> None:
        self.scopes = ["<module>"]
        self.found: "set[str]" = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    def _record(self, name: str) -> None:
        if name == "is_grad_enabled":
            self.found.add(self.scopes[-1])

    def visit_Name(self, node: ast.Name) -> None:
        self._record(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._record(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self._record(alias.name)


def test_only_the_tensor_engine_reads_grad_mode():
    """A no-grad fork is a second implementation to keep exact.  ``F.linear``
    had the last one; as one graph node it scores GRU4Rec, the IRS evaluator,
    as fast without it.  A new one must name its measurement and be added
    here."""
    readers = set()
    for path in sorted(SOURCE.rglob("*.py")):
        visitor = _GradModeReaders()
        visitor.visit(ast.parse(path.read_text()))
        relative = path.relative_to(SOURCE).as_posix()
        readers |= {(relative, scope) for scope in visitor.found}
    outside = {reader for reader in readers if reader[0] != "nn/tensor.py"}
    assert outside == set()
    assert ("nn/tensor.py", "no_grad") in readers


def test_every_name_in_every_all_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")  # running it is the CLI
    ]
    listed = [(module, name) for module in modules for name in getattr(module, "__all__", ())]
    assert len(listed) > 500
    unresolved = [(module.__name__, name) for module, name in listed if not hasattr(module, name)]
    assert unresolved == []
