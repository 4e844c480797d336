"""A training budget for the catalogue-shaped IRN fit (``pytest -m perf``).

IRN's set-up trains through ``repro.nn``'s engine.  ``Tensor.backward``
frees the graph as it runs, so little is live between two steps; the loss,
``F.tied_cross_entropy``, projects a chunk of batch rows at a time, so a
step never holds its ``(batch, length, vocab)`` logits; and the fit keeps
glibc's heap between steps (``mallopt``: an mmap threshold of 32 MiB, a
trim threshold of 128 MiB) instead of trimming the top of the heap after
one step and page-faulting it back in the next.  All three show as counts
that move little run to run, so they are bounded here without a
stopwatch, in a fresh interpreter that fits the IRN of the e2e benchmark's
``catalog_pruned`` workload once (20 000 items, one layer, one epoch):

- the peak of the numpy and Python memory ``tracemalloc`` sees across the
  fit, at most 0.3 of the engine that kept the whole graph through every
  step: one more ``(batch, length, vocab)`` array of the fit's longest
  batch (≈ 15 MB) crosses it.  The loss that held the logits, with the
  graph freed, read 69.3 MB;
- the minor page faults (``ru_minflt``) of the fit's steps after the first,
  at most a quarter of that engine's.  The first step touches the heap's
  pages for the first time, and every engine faults them in once (4–7 k
  faults); what the allocator policy removes is the re-faulting of the
  heap in every later step.  With the loss chunked but the policy left
  out, those steps fault ≈ 103 k pages, six times the graph-keeping
  engine's (≈ 130 k when the loss held the logits);
- the minor page faults of the whole fit, first step included, at most
  half of that engine's.

Each bound is a tuple ``(engine that kept the graph, this code when the
bound was set, bound)``, read in fresh interpreters with Python 3.11, NumPy
2.4 and glibc 2.36 on 2 vCPUs; faults depend on the allocator, so off glibc
the fault bounds are not checked.  To look at a fit yourself, from the
repository root::

    PYTHONPATH=src python benchmarks/perf/test_training_budget.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import pytest

pytestmark = pytest.mark.perf

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: the shape of the ``catalog_pruned`` workload's corpus and model
#: (``benchmarks/e2e/workloads.py``), kept here so the recorded figures keep
#: meaning what they measured if the benchmark's shapes move
CATALOG_STREAM = dict(num_items=20_000, num_users=128, min_events=12, max_events=24, seed=0)
CATALOG_SPLIT = dict(l_min=6, l_max=12, validation_fraction=0.0, seed=0)
CATALOG_IRN = dict(
    embedding_dim=16, user_dim=4, num_heads=2, num_layers=1, epochs=1,
    batch_size=8, max_sequence_length=16, seed=0,
)

#: (engine that kept the graph, this code when the bound was set, bound)
PEAK_MB = (112.0, 21.9, 0.3)
LATER_STEP_FAULTS = (16_069, 587, 0.25)
FIT_FAULTS = (23_003, 5_682, 0.5)


def measure_fit() -> dict:
    """Fit the catalogue IRN once in this process; its faults and traced peak."""
    import gc
    import resource
    import tempfile
    import tracemalloc

    from repro.core.irn import IRN
    from repro.data.splitting import split_corpus
    from repro.data.streaming import StreamingSyntheticConfig, build_streaming_store
    from repro.nn.optim import Adam

    with tempfile.TemporaryDirectory() as tmp:
        store = build_streaming_store(
            StreamingSyntheticConfig(**CATALOG_STREAM), os.path.join(tmp, "store"), name="budget"
        )
        split = split_corpus(store.as_corpus(), **CATALOG_SPLIT)
    gc.collect()

    def faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    first_step_done = []
    step = Adam.step

    def counted_step(self):
        if not first_step_done:
            first_step_done.append(faults())
        return step(self)

    Adam.step = counted_step
    tracemalloc.start()
    started = faults()
    try:
        IRN(**CATALOG_IRN).fit(split)
        ended = faults()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        Adam.step = step
    return {
        "peak_mb": peak / 2**20,
        "fit_faults": ended - started,
        "later_step_faults": ended - first_step_done[0],
    }


def _fit_in_a_fresh_interpreter() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
    )
    code = (
        "import json\n"
        "from benchmarks.perf.test_training_budget import measure_fit\n"
        "print(json.dumps(measure_fit()))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=300,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fit() -> dict:
    return _fit_in_a_fresh_interpreter()


def test_the_fit_peaks_inside_its_memory_budget(fit):
    parent, now, bound = PEAK_MB
    assert fit["peak_mb"] <= bound * parent, (
        f"the catalogue fit peaked at {fit['peak_mb']:.1f} MB traced: more than {bound:.0%} "
        f"of the {parent} MB the graph-keeping engine read (this code read {now} MB)"
    )


_GLIBC_ONLY = pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the fault counts are glibc's allocator's",
)


@_GLIBC_ONLY
def test_the_fit_keeps_its_heap_between_steps(fit):
    parent, now, bound = LATER_STEP_FAULTS
    assert fit["later_step_faults"] <= bound * parent, (
        f"the catalogue fit's steps after the first made {fit['later_step_faults']} minor "
        f"faults: more than {bound:.0%} of the {parent} the graph-keeping engine made "
        f"(this code made {now})"
    )


@_GLIBC_ONLY
def test_the_whole_fit_faults_less_than_the_graph_keeping_engine(fit):
    parent, now, bound = FIT_FAULTS
    assert fit["fit_faults"] <= bound * parent, (
        f"the catalogue fit made {fit['fit_faults']} minor faults: more than {bound:.0%} of "
        f"the {parent} the graph-keeping engine made (this code made {now})"
    )


if __name__ == "__main__":
    print(json.dumps(measure_fit(), indent=1))
