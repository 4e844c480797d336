"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.utils.exceptions import ConfigurationError


class TestParser:
    def test_requires_artefact(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table6"])
        assert args.dataset == "movielens"
        assert args.profile == "default"

    def test_rejects_unknown_artefact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])


class TestMain:
    def test_table6_runs_without_training(self, capsys):
        assert main(["table6", "--profile", "fast"]) == 0
        out = capsys.readouterr().out
        assert "w_t" in out

    def test_table1_fast_profile(self, capsys, tmp_path):
        output = tmp_path / "report.txt"
        code = main(
            ["table1", "--profile", "fast", "--scale", "0.2", "--output", str(output)]
        )
        assert code == 0
        assert output.exists()
        assert "interactions" in output.read_text()

    def test_figure8_fast_profile(self, capsys):
        assert main(["figure8", "--profile", "fast", "--scale", "0.2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "mean=" in out

    def test_ablation_decoding_fast_profile(self, capsys):
        assert main(["ablation-decoding", "--profile", "fast", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "greedy (Algorithm 1)" in out
        assert "beam search" in out

    def test_extension_category_fast_profile(self, capsys):
        assert main(["ext-category", "--profile", "fast", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "category:" in out

    def test_new_artefacts_listed_in_parser(self):
        parser = build_parser()
        for artefact in ["ablation-embedding", "ext-interactive", "ext-kg", "ext-quality"]:
            args = parser.parse_args([artefact])
            assert args.artefact == artefact


class TestScalingFlags:
    """The evaluation knobs are CLI-visible and validated with clear
    ConfigurationError messages."""

    def test_flags_parsed_with_defaults(self):
        args = build_parser().parse_args(["table6"])
        assert args.num_workers is None
        assert args.rollout_chunk_size is None

    def test_table6_accepts_scaling_flags(self, capsys):
        code = main(
            ["table6", "--profile", "fast", "--num-workers", "2", "--rollout-chunk-size", "16"]
        )
        assert code == 0
        assert "w_t" in capsys.readouterr().out

    def test_invalid_num_workers_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="num_workers"):
            main(["table6", "--profile", "fast", "--num-workers", "0"])
        with pytest.raises(ConfigurationError, match="num_workers"):
            main(["table6", "--profile", "fast", "--num-workers", "two"])

    def test_invalid_rollout_chunk_size_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="rollout-chunk-size"):
            main(["table6", "--profile", "fast", "--rollout-chunk-size", "0"])
        with pytest.raises(ConfigurationError, match="rollout-chunk-size"):
            main(["table6", "--profile", "fast", "--rollout-chunk-size", "many"])

    def test_num_workers_is_cli_only(self, monkeypatch):
        from repro.cli import resolve_args

        monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
        args = build_parser().parse_args(["table6"])
        assert resolve_args(args, "table6") == {"num_workers": 1, "rollout_chunk_size": None}


class TestBenchSubcommand:
    def test_bench_listed_in_parser(self):
        args = build_parser().parse_args(["bench"])
        assert args.artefact == "bench"

    def test_bench_fast_profile_reports_cache_hit_rates(self, capsys, tmp_path):
        import json

        output = tmp_path / "BENCH_path_planning.json"
        assert main(["bench", "--profile", "fast", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "forwards/sec" in out
        assert "tokens of work" in out
        report = json.loads(output.read_text())
        assert report["irs_stepwise_replanning"]["token_work_reduction"] >= 2.0
        assert "cache_counters" in report["irs_stepwise_replanning"]

    def test_bench_sections_subset(self, capsys, tmp_path):
        """Satellite of the serving PR: --sections runs only the named bench
        sections (the full bench is slow; CI targets the section under test)."""
        import json

        output = tmp_path / "bench_subset.json"
        code = main(
            [
                "bench",
                "--profile",
                "fast",
                "--sections",
                "nextitem_evaluation",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        report = json.loads(output.read_text())
        assert report["sections"] == ["nextitem_evaluation"]
        assert "nextitem_evaluation" in report
        assert "beam_planning" not in report
        assert "async_serving" not in report

    def test_bench_unknown_section_raises(self):
        with pytest.raises(ConfigurationError, match="unknown bench section"):
            main(["bench", "--profile", "fast", "--sections", "quantum_planning"])

    def test_bench_cprofile_writes_pstats_dump(self, capsys, tmp_path):
        """Tensor-engine PR satellite: --cprofile profiles the bench run and
        drops a pstats dump next to the JSON report for ``pstats``/snakeviz."""
        import json
        import pstats

        output = tmp_path / "bench_profiled.json"
        code = main(
            [
                "bench",
                "--profile",
                "fast",
                "--sections",
                "tensor_ops",
                "--cprofile",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert "cProfile stats written to" in capsys.readouterr().err
        report = json.loads(output.read_text())
        assert "tensor_ops" in report
        stats_path = tmp_path / "bench_profiled.json.pstats"
        assert stats_path.exists()
        stats = pstats.Stats(str(stats_path))  # loadable, non-empty profile
        assert stats.total_calls > 0


class TestServeSimSubcommand:
    """Satellite of the serving PR: the serve-sim CLI surface."""

    def test_serve_sim_listed_in_parser_with_flag_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.artefact == "serve-sim"
        assert args.arrival_rate is None
        assert args.duration is None
        assert args.max_queue_depth is None
        assert args.drain_deadline is None
        assert args.admission_policy is None

    def test_serve_sim_fast_profile_reports_latency(self, capsys, tmp_path):
        import json

        output = tmp_path / "serve_report.json"
        code = main(
            [
                "serve-sim",
                "--profile",
                "fast",
                "--arrival-rate",
                "300",
                "--duration",
                "0.3",
                # Pin the plain latency sim: the REPRO_TENANTS=2 tier-1 leg
                # would otherwise flip serve-sim into the A/B harness.
                "--tenants",
                "1",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "async serving sim" in out
        assert "p99" in out
        report = json.loads(output.read_text())
        assert report["arrival_rate"] == 300.0
        assert report["admitted_requests"] + report["rejected_requests"] == report[
            "offered_requests"
        ]
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]

    def test_invalid_arrival_rate_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="arrival_rate"):
            main(["serve-sim", "--profile", "fast", "--arrival-rate", "0"])
        with pytest.raises(ConfigurationError, match="arrival_rate"):
            main(["serve-sim", "--profile", "fast", "--arrival-rate", "fast"])

    def test_invalid_queue_knobs_raise_configuration_error(self):
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            main(["serve-sim", "--profile", "fast", "--max-queue-depth", "0"])
        with pytest.raises(ConfigurationError, match="drain_deadline"):
            main(["serve-sim", "--profile", "fast", "--drain-deadline", "-1"])
        with pytest.raises(ConfigurationError, match="admission_policy"):
            main(["serve-sim", "--profile", "fast", "--admission-policy", "drop"])

    def test_env_defaults_apply_when_serve_flags_omitted(self, monkeypatch):
        from repro.cli import _resolve_serve_args

        monkeypatch.setenv("REPRO_ARRIVAL_RATE", "77")
        monkeypatch.setenv("REPRO_MAX_QUEUE_DEPTH", "9")
        monkeypatch.setenv("REPRO_ADMISSION_POLICY", "reject")
        monkeypatch.setenv("REPRO_DRAIN_DEADLINE", "0.01")
        monkeypatch.setenv("REPRO_SERVE_DURATION", "0.5")
        args = build_parser().parse_args(["serve-sim"])
        serve = _resolve_serve_args(args)
        assert serve == {
            "arrival_rate": 77.0,
            "duration": 0.5,
            "max_queue_depth": 9,
            "drain_deadline": 0.01,
            "admission_policy": "reject",
        }


class TestReplicationFlags:
    """Satellite of the replication PR: serve-sim grows --replicas /
    --refit-at / --dispatch-policy, with cross-flag validation that exits
    nonzero on bad combos instead of silently accepting them."""

    def test_flags_parsed_with_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.replicas is None
        assert args.refit_at is None
        assert args.dispatch_policy is None

    def test_invalid_replica_knobs_raise_configuration_error(self):
        with pytest.raises(ConfigurationError, match="num_replicas"):
            main(["serve-sim", "--profile", "fast", "--replicas", "0"])
        with pytest.raises(ConfigurationError, match="num_replicas"):
            main(["serve-sim", "--profile", "fast", "--replicas", "two"])
        with pytest.raises(ConfigurationError, match="refit_at"):
            main(["serve-sim", "--profile", "fast", "--refit-at", "-1"])
        with pytest.raises(ConfigurationError, match="refit_at"):
            main(["serve-sim", "--profile", "fast", "--refit-at", "soon"])
        with pytest.raises(ConfigurationError, match="dispatch_policy"):
            main(["serve-sim", "--profile", "fast", "--dispatch-policy", "fastest"])

    def test_refit_at_must_fall_inside_duration(self):
        with pytest.raises(ConfigurationError, match="strictly inside"):
            main(["serve-sim", "--profile", "fast", "--duration", "1", "--refit-at", "1"])
        with pytest.raises(ConfigurationError, match="strictly inside"):
            main(["serve-sim", "--profile", "fast", "--duration", "1", "--refit-at", "2.5"])

    def test_run_wrapper_exits_nonzero_with_clear_error(self, capsys):
        from repro.cli import run

        assert run(["serve-sim", "--profile", "fast", "--replicas", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "num_replicas" in err
        # A valid invocation still routes through main() unchanged.
        assert run(["table6", "--profile", "fast"]) == 0

    def test_replicated_serve_sim_fast_profile(self, capsys, tmp_path):
        import json

        output = tmp_path / "replica_report.json"
        code = main(
            [
                "serve-sim",
                "--profile",
                "fast",
                "--arrival-rate",
                "200",
                "--duration",
                "0.4",
                "--replicas",
                "2",
                "--tenants",
                "1",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "async serving sim" in out
        assert "replicas: 2" in out
        report = json.loads(output.read_text())
        assert report["replication"]["num_replicas"] == 2
        assert report["replication"]["enabled"] is True
        assert report["errored_requests"] == 0
        assert report["no_pause"] is True
        assert report["fit_generation"] == 1
        assert report["dispatch"]["policy"] == "least_loaded"
        assert set(report["generations_served"]) == {"1"}

    def test_env_defaults_apply_when_replica_flags_omitted(self, monkeypatch):
        from repro.cli import _resolve_replica_args

        monkeypatch.setenv("REPRO_REPLICAS", "3")
        monkeypatch.setenv("REPRO_REFIT_AT", "0.25")
        monkeypatch.setenv("REPRO_DISPATCH_POLICY", "round_robin")
        args = build_parser().parse_args(["serve-sim"])
        replication = _resolve_replica_args(args, duration=2.0)
        assert replication == {
            "num_replicas": 3,
            "refit_at": 0.25,
            "dispatch_policy": "round_robin",
        }
        with pytest.raises(ConfigurationError, match="strictly inside"):
            _resolve_replica_args(args, duration=0.2)


class TestProfileResolution:
    """Satellite of the retrieval PR: --profile is validated eagerly, with
    the bench profile names (smoke/default/scale) accepted by the bench and
    serving commands and rejected — with a clear error — by the paper
    artefacts."""

    def test_bench_unknown_profile_raises_before_training(self):
        with pytest.raises(ConfigurationError, match="smoke, default, scale"):
            main(["bench", "--profile", "quantum"])

    def test_bench_accepts_bench_profile_names(self):
        from repro.cli import _resolve_bench_profile

        assert _resolve_bench_profile("fast") == "smoke"
        assert _resolve_bench_profile("smoke") == "smoke"
        assert _resolve_bench_profile("default") == "default"
        assert _resolve_bench_profile("scale") == "scale"

    def test_paper_artefacts_reject_bench_only_profiles(self):
        for profile in ("scale", "smoke", "quantum"):
            with pytest.raises(ConfigurationError, match="paper artefacts"):
                main(["table6", "--profile", profile])

    def test_run_exits_2_on_unknown_profile(self, capsys):
        from repro.cli import run

        assert run(["bench", "--profile", "quantum"]) == 2
        assert "known profiles" in capsys.readouterr().err


class TestServeSimRetrievalFlags:
    """Satellite of the retrieval PR: serve-sim plugs a candidate generator
    into the serving planner via --retrieval / --candidate-k."""

    def test_flags_parsed_with_defaults(self):
        args = build_parser().parse_args(["serve-sim"])
        assert args.retrieval is None
        assert args.candidate_k is None

    def test_unknown_retrieval_spec_raises(self):
        with pytest.raises(ConfigurationError, match="unknown retrieval spec"):
            main(["serve-sim", "--profile", "fast", "--retrieval", "quantum"])

    def test_candidate_k_requires_retrieval(self):
        with pytest.raises(ConfigurationError, match="requires --retrieval"):
            main(["serve-sim", "--profile", "fast", "--candidate-k", "64"])

    def test_invalid_candidate_k_raises(self):
        with pytest.raises(ConfigurationError, match="candidate-k"):
            main(
                [
                    "serve-sim",
                    "--profile",
                    "fast",
                    "--retrieval",
                    "cooccurrence",
                    "--candidate-k",
                    "many",
                ]
            )
        with pytest.raises(ConfigurationError, match="num_candidates"):
            main(
                [
                    "serve-sim",
                    "--profile",
                    "fast",
                    "--retrieval",
                    "cooccurrence",
                    "--candidate-k",
                    "0",
                ]
            )

    def test_serve_sim_with_cooccurrence_retrieval(self, capsys, tmp_path):
        import json

        output = tmp_path / "serve_retrieval.json"
        code = main(
            [
                "serve-sim",
                "--profile",
                "fast",
                "--arrival-rate",
                "100",
                "--duration",
                "0.3",
                "--retrieval",
                "cooccurrence",
                "--candidate-k",
                "16",
                "--tenants",
                "1",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "retrieval: cooccurrence shortlists (k=16)" in out
        report = json.loads(output.read_text())
        assert report["retrieval"]["spec"] == "cooccurrence"
        assert report["retrieval"]["candidate_k"] == 16
        metrics = report["retrieval"]["metrics"]
        assert metrics["generator"] == "cooccurrence"
        assert metrics["requests"] > 0
        assert metrics["fallbacks"] <= metrics["requests"]

    def test_serve_sim_ab_harness_reports_uplift_and_slo(self, capsys, tmp_path):
        import json

        output = tmp_path / "ab_report.json"
        code = main(
            [
                "serve-sim",
                "--profile",
                "fast",
                "--tenants",
                "2",
                "--cohort-sessions",
                "6",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tenant control" in out
        assert "tenant treatment" in out
        assert "uplift (treatment - control interactive SR)" in out
        assert "SLO" in out
        report = json.loads(output.read_text())
        assert report["harness"] == "ab"
        assert report["tenants"] == 2
        assert report["cohort_sessions"] == 6
        summary = report["ab"]
        assert set(summary) == {"control", "treatment", "uplift"}
        for arm in ("control", "treatment"):
            assert summary[arm]["requests"] > 0
            assert summary[arm]["p50_ms"] <= summary[arm]["p95_ms"]
        assert set(report["fleet_tenants"]) == {"control", "treatment"}

    def test_serve_sim_rejects_more_than_two_tenants(self):
        with pytest.raises(ConfigurationError, match="exactly 2 tenants"):
            main(["serve-sim", "--profile", "fast", "--tenants", "3"])
        with pytest.raises(ConfigurationError, match="tenants"):
            main(["serve-sim", "--profile", "fast", "--tenants", "0"])

    def test_serve_sim_without_retrieval_reports_exact_spec(self, capsys, tmp_path):
        import json

        output = tmp_path / "serve_exact.json"
        code = main(
            [
                "serve-sim",
                "--profile",
                "fast",
                "--arrival-rate",
                "100",
                "--duration",
                "0.3",
                "--tenants",
                "1",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        report = json.loads(output.read_text())
        assert report["retrieval"] == {"spec": "none", "candidate_k": 256}
