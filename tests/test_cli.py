"""Tests for the command-line interface."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.cli.profiles import (
    PROFILES,
    build_bench_split,
    machine_info,
    peak_rss_kb,
    profile_config,
)
from repro.data.preprocessing import build_corpus
from repro.data.splitting import split_corpus
from repro.data.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.evaluation.protocol import sample_objectives
from repro.utils.exceptions import ConfigurationError

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"


@functools.cache
def _e2e_workloads():
    """``benchmarks/e2e/workloads.py``, loaded from its path (the e2e
    directory is a script directory, not a package); registered so its
    dataclasses can resolve their module."""
    spec = importlib.util.spec_from_file_location("e2e_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    """The serving commands' corpus profiles and their machine block
    (:mod:`repro.cli.profiles`); which ``--profile`` values each command
    takes is the contract matrix's (``tests/test_cli_contract.py``)."""

    def test_each_profile_has_its_own_config(self):
        assert PROFILES == ("fast", "default")
        fast, default = profile_config("fast"), profile_config("default")
        keys = {
            "synthetic",
            "irn",
            "beam_width",
            "branch_factor",
            "max_path_length",
            "num_instances",
            "serve_requests_per_context",
        }
        assert set(fast) == set(default) == keys
        assert (fast["irn"]["num_layers"], default["irn"]["num_layers"]) == (1, 2)
        assert default["synthetic"]["num_items"] > fast["synthetic"]["num_items"]
        # a fresh dict per call: a caller's edits never leak into the next
        fast["beam_width"] = 99
        assert profile_config("fast")["beam_width"] == 4

    @pytest.mark.parametrize("profile", PROFILES)
    def test_a_profile_builds_the_same_split_every_time(self, profile):
        """Fixed seeds end to end: two builds are the same corpus and split,
        with enough objectives for the instances the profile samples."""
        config = profile_config(profile)
        first, second = build_bench_split(config), build_bench_split(config)
        assert (first.train, first.validation, first.test) == (
            second.train,
            second.validation,
            second.test,
        )
        assert first.corpus.vocab.size <= config["synthetic"]["num_items"] + 1
        instances = sample_objectives(
            first, min_objective_interactions=2, seed=0, max_instances=config["num_instances"]
        )
        assert len(instances) == config["num_instances"]

    def test_the_fast_profile_is_the_tier1_corpus(self, tiny_split):
        """``--profile fast`` serves the split every tier-1 fixture is built on."""
        split = build_bench_split(profile_config("fast"))
        assert split.corpus.vocab.size == tiny_split.corpus.vocab.size
        assert (split.train, split.validation, split.test) == (
            tiny_split.train,
            tiny_split.validation,
            tiny_split.test,
        )

    @pytest.mark.parametrize("part", ["split", "irn", "planner"])
    def test_the_default_profile_is_the_e2e_fixture(self, part):
        """``benchmarks/e2e/workloads.py`` copies the ``default`` profile's
        constants rather than importing them; ``serve-sim --profile default``
        keeps serving the fixture the benchmark measures."""
        e2e = _e2e_workloads()
        default = profile_config("default")
        if part == "split":  # built the way the benchmark builds it
            dataset = generate_synthetic_dataset(SyntheticConfig(**e2e.SMALL_SYNTHETIC))
            theirs = split_corpus(build_corpus(dataset, min_interactions=3), **e2e.SMALL_SPLIT)
            ours = build_bench_split(default)
            assert (ours.train, ours.validation, ours.test) == (
                theirs.train,
                theirs.validation,
                theirs.test,
            )
        elif part == "irn":
            assert default["irn"] == e2e.SMALL_IRN
        else:
            assert e2e.PLANNER == dict(
                beam_width=default["beam_width"],
                branch_factor=default["branch_factor"],
                max_length=default["max_path_length"],
            )

    def test_machine_info_records_peak_rss(self):
        info = machine_info()
        assert info["cpu_count"] >= 1 and info["platform"]
        assert "peak_rss_kb" in info

    def test_peak_rss_positive_on_posix(self):
        if not sys.platform.startswith(("linux", "darwin")):
            pytest.skip("ru_maxrss unavailable off-POSIX")
        rss = peak_rss_kb()
        assert rss is not None and rss > 0


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
