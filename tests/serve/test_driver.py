"""Traffic drivers: deterministic Poisson traces, latency summaries, and
the open-loop report shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import ServingLoop, poisson_arrival_offsets, run_open_loop
from repro.serve.driver import latency_percentiles
from repro.utils.exceptions import ConfigurationError


class TestPoissonArrivals:
    def test_fixed_size_trace_is_deterministic(self):
        a = poisson_arrival_offsets(50.0, np.random.default_rng(7), num_requests=20)
        b = poisson_arrival_offsets(50.0, np.random.default_rng(7), num_requests=20)
        assert np.array_equal(a, b)
        assert a.shape == (20,)
        assert np.all(np.diff(a) > 0)

    def test_duration_trace_bounded(self):
        offsets = poisson_arrival_offsets(200.0, np.random.default_rng(0), duration=0.5)
        assert np.all(offsets < 0.5)
        # 200 req/s over 0.5 s: ~100 arrivals, generously bracketed.
        assert 40 <= offsets.size <= 200

    def test_exactly_one_mode_required(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="exactly one"):
            poisson_arrival_offsets(10.0, rng)
        with pytest.raises(ConfigurationError, match="exactly one"):
            poisson_arrival_offsets(10.0, rng, num_requests=5, duration=1.0)
        with pytest.raises(ConfigurationError, match="num_requests"):
            poisson_arrival_offsets(10.0, rng, num_requests=0)


class TestLatencyPercentiles:
    def test_empty(self):
        summary = latency_percentiles([])
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_percentile_ordering(self):
        summary = latency_percentiles(list(range(1, 101)))
        assert summary["count"] == 100
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]
        assert summary["max"] == 100.0


class TestOpenLoop:
    def test_report_shape_and_accounting(self, make_planner, serve_contexts):
        with ServingLoop(make_planner()) as loop:
            report = run_open_loop(
                loop,
                serve_contexts,
                arrival_rate=400.0,
                num_requests=18,
                seed=0,
            )
        assert report["offered_requests"] == 18
        assert report["admitted_requests"] + report["rejected_requests"] == 18
        assert report["throughput_rps"] > 0
        assert report["latency_ms"]["count"] == report["admitted_requests"]
        assert (
            report["latency_ms"]["p50"]
            <= report["latency_ms"]["p95"]
            <= report["latency_ms"]["p99"]
        )
        assert report["queue_depth"]["max"] >= 1
        assert report["micro_batches"]["count"] >= 1
        assert report["admission"]["policy"] in ("block", "reject")

    def test_rejections_counted_under_reject_policy(self, make_planner, serve_contexts):
        # A tiny queue and a burst far above serviceable rate: some arrivals
        # must bounce, and the report's accounting still balances.
        with ServingLoop(
            make_planner(),
            max_queue_depth=1,
            admission_policy="reject",
            drain_deadline=0.05,
        ) as loop:
            report = run_open_loop(
                loop,
                serve_contexts,
                arrival_rate=5000.0,
                num_requests=30,
                seed=1,
            )
        assert report["rejected_requests"] > 0
        assert report["admitted_requests"] + report["rejected_requests"] == 30
        assert report["admission"]["rejected"] == report["rejected_requests"]

    def test_contexts_required(self, make_planner):
        with ServingLoop(make_planner()) as loop:
            with pytest.raises(ConfigurationError, match="context"):
                run_open_loop(loop, [], arrival_rate=10.0, num_requests=1)


class _FailingPlanner:
    """Planner stub whose every drain fails (for error-accounting tests)."""

    max_length = 5

    def plan_for_requests(self, requests):
        raise RuntimeError("drain blew up")


class TestOpenLoopErrorAccounting:
    def test_raise_on_error_false_counts_instead_of_dying(self):
        """Satellite of the replication PR: the hot-refit bench gates on the
        errored count, so a failing drain must not kill the run — including
        through the in-flight advance() path, which resolves every tracked
        session request."""
        with ServingLoop(_FailingPlanner()) as loop:
            report = run_open_loop(
                loop,
                [((1, 2), 3, None), ((4, 5), 6, None)],
                arrival_rate=400.0,
                num_requests=12,
                seed=0,
                raise_on_error=False,
            )
        assert report["errored_requests"] == report["admitted_requests"] == 12
        assert report["latency_ms"]["count"] == 0

    def test_raise_on_error_default_propagates(self):
        with ServingLoop(_FailingPlanner()) as loop:
            with pytest.raises(RuntimeError, match="drain blew up"):
                run_open_loop(
                    loop,
                    [((1, 2), 3, None)],
                    arrival_rate=400.0,
                    num_requests=4,
                    seed=0,
                )

    def test_collect_samples_reports_per_request_generations(self, make_planner, serve_contexts):
        planner = make_planner()
        planner.serving_generation = 9
        with ServingLoop(planner) as loop:
            report = run_open_loop(
                loop,
                serve_contexts[:2],
                arrival_rate=400.0,
                num_requests=6,
                seed=0,
                collect_samples=True,
            )
        assert len(report["samples"]) == report["admitted_requests"]
        assert {sample["generation"] for sample in report["samples"]} == {9}
        assert all("offset_s" in sample and "replica" in sample for sample in report["samples"])
