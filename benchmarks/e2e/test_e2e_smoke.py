"""Tier-2 smoke tests of the end-to-end benchmark (``pytest -m perf``).

Every test drives ``run.py`` as the benchmark driver does — a subprocess,
the last stdout line parsed as JSON — on the ``--smoke`` profile (one
set-up, two rounds of quarter-size units), so tier-1 collection and time
are unchanged.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.perf

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("loop_fresh", "loop_resident", "fleet_mixed", "catalog_pruned")
EXACT_COUNTS = ("core.replans_per_op", "nn.tokens_encoded_per_op", "cache.step_hit_ratio")


def run_benchmark(*args: str) -> "tuple[int, list[str], float]":
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.strip().splitlines(), time.perf_counter() - started


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload, declared):
    code, lines, wall_s = run_benchmark("--workload", workload, "--seed", "3")
    assert code == 0, lines
    # 10 s on a quiet host (its calibration kernel reads 6.5 ms); this one's
    # neighbours stretch everything by up to 2x for minutes at a time.
    calib_ms = next(float(line.split()[1]) for line in lines
                    if line.startswith(f"{workload}/host.calib_ms_q1 "))
    assert wall_s * min(6.5 / calib_ms, 1.0) < 10.0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for metric in declared["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
        assert any(
            line.startswith(f"{workload}/{metric['name']} ") and line.endswith(" " + metric["unit"])
            for line in lines
        )
    assert set(result["metrics"]) == {metric["name"] for metric in declared["end_to_end"]}
    assert f"{workload}/fail_share 0 ratio" in lines


def test_exact_counts_repeat_for_a_seed_and_differ_between_seeds(declared):
    def counts(seed: int) -> tuple:
        code, lines, _ = run_benchmark(
            "--workload", "fleet_mixed", "--trace", "1", "--seed", str(seed)
        )
        assert code == 0, lines
        metrics = json.loads(lines[-1])["metrics"]
        assert set(metrics) == {metric["name"] for metric in declared["per_layer"]}
        return tuple(metrics[name]["value"] for name in EXACT_COUNTS)

    first = counts(5)
    assert counts(5) == first
    assert counts(6) != first


def test_corrupted_reference_path_fails_the_run():
    code, lines, _ = run_benchmark("--workload", "loop_fresh", "--corrupt-reference")
    assert code != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] > 0
