"""An interpreter budget for a compiled plan (``pytest -m perf``).

IRN plans through a compiled ndarray program (:mod:`repro.nn.inference`):
once it is compiled, ``plan_paths_batch`` builds no ``Tensor``, dispatches
through no ``Module.__call__`` and never asks ``is_grad_enabled()``.  Those
are *counts* under ``cProfile`` — they repeat exactly, run to run — so a
scorer that quietly goes back through the autograd modules fails here, on
any host, without a stopwatch.

The total call count of a plan is bounded against the figure the commit
before the program recorded for the same plan (``parent_calls``; ``now`` is
what this code read when the bound was set, Python 3.11 / NumPy 2.4 — other
versions move both by a few percent, hence a bound and not an equality).
The ``fast`` profile's own model has one layer and a 20-token window, so its
plans run the per-row-window regime; the same corpus under the paper's
two-layer depth runs the shared regime.  Both plan one context.  The third
case is the ``loop_fresh`` shape — sixteen contexts planned in lockstep on
the two-layer model — whose ``parent_calls`` is the commit before the beam
and the decoding session became arrays: its count is flat in the number of
rows and contexts, so a batch plan that slides back to per-row Python
(hypothesis objects, list rebuilds, per-row masks) fails here.

To look at a plan yourself, from the repository root (one line)::

    PYTHONPATH=src python -c "from benchmarks.perf.test_interpreter_budget import
    profile_plan; profile_plan(16, num_layers=2, max_sequence_length=50).sort_stats('tottime').print_stats(25)"
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.evaluation.protocol import sample_objectives
from repro.cli.profiles import build_bench_split, profile_config

pytestmark = pytest.mark.perf

#: (file suffix, function) of the calls a compiled plan must not make
FORBIDDEN = {
    "Tensor.__init__": ("nn/tensor.py", "__init__"),
    "Module.__call__": ("nn/layers.py", "__call__"),
    "is_grad_enabled": ("nn/tensor.py", "is_grad_enabled"),
}


def profile_plan(instances: int = 1, **irn_overrides) -> pstats.Stats:
    """cProfile of ``instances`` contexts planned in lockstep on a model of the
    ``fast`` profile's corpus, program compiled."""
    config = profile_config("fast")
    split = build_bench_split(config)
    irn = IRN(**{**config["irn"], **irn_overrides}).fit(split)
    planner = BeamSearchPlanner(
        irn,
        beam_width=config["beam_width"],
        branch_factor=config["branch_factor"],
        plan_cache_size=0,
    ).fit(split)
    chosen = sample_objectives(split, min_objective_interactions=2, seed=0, max_instances=instances)
    assert len(chosen) == instances
    args = (
        [list(instance.history) for instance in chosen],
        [instance.objective for instance in chosen],
        [instance.user_index for instance in chosen],
    )
    planner.plan_paths_batch(*args, max_length=config["max_path_length"])  # compiles
    profile = cProfile.Profile()
    profile.enable()
    planner.plan_paths_batch(*args, max_length=config["max_path_length"])
    profile.disable()
    return pstats.Stats(profile)


@pytest.mark.parametrize(
    "instances, irn_overrides, parent_calls, now, bound",
    [
        pytest.param(1, {}, 6909, 2385, 0.40, id="smoke-model"),
        pytest.param(
            1, dict(num_layers=2, max_sequence_length=50), 13590, 2794, 0.40,
            id="two-layer-shared",
        ),
        pytest.param(
            16, dict(num_layers=2, max_sequence_length=50), 15210, 3496, 0.25,
            id="two-layer-lockstep-16",
        ),
    ],
)
def test_a_compiled_plan_stays_inside_its_interpreter_budget(
    instances, irn_overrides, parent_calls, now, bound
):
    stats = profile_plan(instances, **irn_overrides)
    calls = {
        label: sum(
            entry[1]
            for (filename, _, function), entry in stats.stats.items()
            if function == name and filename.replace("\\", "/").endswith(suffix)
        )
        for label, (suffix, name) in FORBIDDEN.items()
    }
    assert calls == {label: 0 for label in FORBIDDEN}
    assert stats.total_calls <= bound * parent_calls, (
        f"{stats.total_calls} calls for one plan: more than {bound:.0%} of the "
        f"{parent_calls} the earlier code made (it read {now} when the bound was set)"
    )
