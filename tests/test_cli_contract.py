"""The CLI contract: every flag a command accepts is resolved through the
``repro.config`` table and consumed; every other flag is a usage error.

The honoured / rejected matrix below is exact — adding a flag to a command
(or a row to the table) without extending it fails here.
"""

import json
import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main, resolve_args
from repro.config import CONFIG_FIELDS, resolve
from repro.core.irn import IRN
from repro.utils.exceptions import ConfigurationError

UNIVERSAL = {"--profile", "--output", "--log-level"}

#: command family (one representative subcommand each) -> the flags it honours
HONOURED = {
    "table3": UNIVERSAL
    | {
        "--dataset",
        "--seed",
        "--scale",
        "--data-directory",
        "--num-workers",
        "--rollout-chunk-size",
    },
    "serve-sim": UNIVERSAL
    | {
        "--seed",
        "--arrival-rate",
        "--duration",
        "--refit-at",
        "--max-queue-depth",
        "--admission-policy",
        "--drain-deadline",
        "--replicas",
        "--transport",
        "--heartbeat-interval",
        "--heartbeat-misses",
        "--probation-beats",
        "--retrieval",
        "--candidate-k",
        "--tenants",
        "--cohort-sessions",
        "--slo-p95",
        "--trace-sample-rate",
    },
    "trace": UNIVERSAL | {"--seed", "--arrival-rate", "--trace-sample-rate"},
    "metrics": UNIVERSAL | {"--seed", "--arrival-rate", "--metrics-format"},
}

#: a value argparse itself accepts, for the flags that are not table rows
PLAIN_VALUES = {
    "--profile": "fast",
    "--output": "out.json",
    "--log-level": "INFO",
    "--dataset": "lastfm",
    "--seed": "1",
    "--scale": "0.5",
    "--data-directory": "data",
    "--metrics-format": "json",
}

#: table row -> (one invalid value, what the ConfigurationError must name)
INVALID = {
    "arrival_rate": ("0", "arrival_rate"),
    "serve_duration": ("soon", "serve_duration"),
    "refit_at": ("-1", "refit_at"),
    "max_queue_depth": ("0", "max_queue_depth"),
    "admission_policy": ("drop", "admission_policy"),
    "drain_deadline": ("-1", "drain_deadline"),
    "num_workers": ("two", "num_workers"),
    "rollout_chunk_size": ("0", "rollout-chunk-size"),
    "num_replicas": ("banana", "num_replicas"),
    "transport": ("pigeon", "transport"),
    "heartbeat_interval": ("0", "heartbeat_interval"),
    "heartbeat_misses": ("banana", "heartbeat_misses"),
    "probation_beats": ("-7", "probation_beats"),
    "retrieval_spec": ("quantum", "unknown retrieval spec"),
    "candidate_k": ("many", "candidate-k"),
    "tenants": ("0", "tenants"),
    "cohort_sessions": ("0", "cohort_sessions"),
    "slo_p95": ("-3", "slo_p95"),
    "trace_sample_rate": ("1.5", "trace_sample_rate"),
    "trace_enabled": ("maybe", "trace_enabled"),
}

CLI_ROWS = [row for row in CONFIG_FIELDS.values() if row.cli]
ALL_FLAGS = sorted(set(PLAIN_VALUES) | {row.flag_name for row in CLI_ROWS})

#: flags that are gone — the sharding knobs (planning and serving run one
#: partition) and the deleted ``bench`` command's: in the matrix below as
#: flags no command honours, so each stays a usage error everywhere
DELETED_FLAGS = ["--shard-backend", "--vocab-shards", "--sections", "--cprofile"]
#: their environment names (and ``num_workers``'s, a CLI-only row now) with
#: values every one of them once rejected
DELETED_ENV = {
    "REPRO_SHARD_BACKEND": "pigeon",
    "REPRO_VOCAB_SHARDS": "0",
    "REPRO_NUM_WORKERS": "two",
}
#: the deleted ``bench`` command's five cells — its three universal flags and
#: its own two — each still a usage error, and the bare command too
BENCH_CELLS = [
    [],
    ["--profile", "fast"],
    ["--output", "report.json"],
    ["--log-level", "INFO"],
    ["--sections", "tensor_ops"],
    ["--cprofile"],
]
#: ``--profile`` values: the two every command takes, then the deleted
#: bench-only names, a spelling the bench profiles once normalised, and a typo
PROFILE_VALUES = ["fast", "default", "smoke", "scale", "FAST", "quantum"]


@pytest.fixture()
def no_training(monkeypatch):
    """Fail the test if any IRN is fitted: configuration errors come first."""

    def fit(self, *args, **kwargs):
        pytest.fail("a model was fitted before the configuration was rejected")

    monkeypatch.setattr(IRN, "fit", fit)


def _exits_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2


def test_the_tables_cover_every_flag_and_row():
    assert set(INVALID) == set(CONFIG_FIELDS)
    assert len(ALL_FLAGS) == 27
    assert set().union(*HONOURED.values()) == set(ALL_FLAGS)
    assert sum(len(flags) for flags in HONOURED.values()) == 42


@pytest.mark.parametrize("cell", BENCH_CELLS, ids=lambda cell: cell[0] if cell else "bare")
def test_the_deleted_bench_command_is_a_usage_error(cell, capsys):
    _exits_2(["bench", *cell])
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize("profile", PROFILE_VALUES)
@pytest.mark.parametrize("command", HONOURED)
def test_every_command_takes_exactly_fast_and_default(command, profile, capsys):
    """One ``--profile`` vocabulary, checked by the parser before anything trains."""
    argv = [command, "--profile", profile]
    if profile in ("fast", "default"):
        assert build_parser().parse_args(argv).profile == profile
    else:
        _exits_2(argv)
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ALL_FLAGS + DELETED_FLAGS)
@pytest.mark.parametrize("command", HONOURED)
def test_a_command_accepts_exactly_the_flags_it_honours(command, flag, capsys):
    argv = [command, flag, PLAIN_VALUES.get(flag, "1")]
    if flag in HONOURED[command]:
        build_parser().parse_args(argv)
    else:
        _exits_2(argv)
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("row", CLI_ROWS, ids=lambda row: row.name)
@pytest.mark.parametrize("command", HONOURED)
def test_no_flag_is_accepted_and_unread(command, row, no_training):
    """Accepted => resolved through the table before any model is fitted;
    not consumed => exit 2 from argparse."""
    bad, names = INVALID[row.name]
    if row.flag_name in HONOURED[command]:
        with pytest.raises(ConfigurationError, match=names):
            main([command, "--profile", "fast", row.flag_name, bad])
    else:
        _exits_2([command, row.flag_name, bad])


@pytest.mark.parametrize("row", CONFIG_FIELDS.values(), ids=lambda row: row.name)
def test_a_declared_environment_name_is_read(row, monkeypatch):
    monkeypatch.setenv(row.env_var, INVALID[row.name][0])
    if row.from_env:
        with pytest.raises(ConfigurationError, match=re.escape("$" + row.env_var)):
            resolve(row.name)
    else:  # a CLI-only row: the name means nothing
        assert resolve(row.name) == row.default


@pytest.mark.parametrize("command", HONOURED)
def test_a_deleted_environment_name_is_not_read(command, monkeypatch):
    args = build_parser().parse_args([command])
    expected = resolve_args(args, command)
    for name, bad in DELETED_ENV.items():
        monkeypatch.setenv(name, bad)
    assert resolve_args(args, command) == expected


class TestServeSimModes:
    """A flag only one serve-sim mode reads is an error in the other mode,
    raised after the pinned cross-flag checks."""

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--refit-at", "0.5"),
            ("--trace-sample-rate", "0.5"),
            ("--arrival-rate", "50"),
            ("--duration", "1"),
        ],
    )
    def test_ab_harness_rejects_open_loop_flags(self, flag, value, no_training):
        with pytest.raises(ConfigurationError, match=flag):
            main(["serve-sim", "--profile", "fast", "--tenants", "2", flag, value])

    @pytest.mark.parametrize("flag,value", [("--cohort-sessions", "5"), ("--slo-p95", "0.1")])
    def test_plain_sim_rejects_ab_flags(self, flag, value, no_training):
        with pytest.raises(ConfigurationError, match=flag):
            main(["serve-sim", "--profile", "fast", "--tenants", "1", flag, value])

    @pytest.mark.parametrize(
        "flag", ["--heartbeat-interval", "--heartbeat-misses", "--probation-beats"]
    )
    def test_heartbeat_flags_require_the_process_transport(self, flag, no_training):
        with pytest.raises(ConfigurationError, match=f"{flag}.*--transport process"):
            main(["serve-sim", "--profile", "fast", "--transport", "inproc", flag, "2"])

    def test_replicas_is_refused_in_process_and_its_variable_ignored(
        self, monkeypatch, capsys, no_training
    ):
        """In process one serving loop answers: ``--replicas`` is the process
        fleet's flag, and an ambient ``REPRO_REPLICAS`` never reaches the
        loop."""
        import repro.cli.serving
        from repro.cli import run

        argv = ["serve-sim", "--profile", "fast", "--tenants", "1"]
        for transport in ([], ["--transport", "inproc"]):
            with pytest.raises(ConfigurationError, match="--replicas.*--transport process"):
                main(argv + transport + ["--replicas", "2"])
        assert run(argv + ["--replicas", "2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --replicas")

        class Built(Exception):
            pass

        def recorder(planner, **kwargs):
            raise Built(kwargs)

        # the loop is handed a built planner: build none (no_training)
        monkeypatch.setattr(repro.cli.serving._Workload, "planner", lambda self: "planner")
        monkeypatch.setattr(repro.cli.serving, "ServingLoop", recorder)
        monkeypatch.setenv("REPRO_REPLICAS", "2")
        with pytest.raises(Built) as excinfo:
            main(argv + ["--transport", "inproc", "--refit-at", "0.5", "--duration", "2"])
        assert "num_replicas" not in excinfo.value.args[0]

    def test_pinned_checks_come_first(self, no_training):
        argv = ["serve-sim", "--profile", "fast", "--tenants", "2", "--duration", "1"]
        with pytest.raises(ConfigurationError, match="strictly inside"):
            main(argv + ["--refit-at", "1"])
        with pytest.raises(ConfigurationError, match="requires --retrieval"):
            main(argv + ["--candidate-k", "8"])

    def test_ambient_environment_values_are_not_mode_errors(self, monkeypatch):
        from repro.cli import resolve_args

        monkeypatch.setenv("REPRO_HEARTBEAT_MISSES", "9")
        monkeypatch.setenv("REPRO_COHORT_SESSIONS", "7")
        args = build_parser().parse_args(["serve-sim", "--tenants", "1", "--transport", "inproc"])
        knobs = resolve_args(args, "serve-sim")
        assert (knobs["heartbeat_misses"], knobs["cohort_sessions"]) == (9, 7)


class TestFleetFlagsReachTheFleet:
    """--heartbeat-misses / --probation-beats were parsed and never passed."""

    ARGV = ["serve-sim", "--profile", "fast", "--tenants", "1", "--transport", "process"]

    def test_invalid_values_are_rejected_before_training(self, no_training):
        with pytest.raises(ConfigurationError, match="heartbeat_misses"):
            main(self.ARGV + ["--heartbeat-misses", "0"])
        with pytest.raises(ConfigurationError, match="probation_beats"):
            main(self.ARGV + ["--probation-beats", "two"])

    def test_the_front_end_is_built_with_every_resolved_knob(self, monkeypatch, no_training):
        import repro.distributed

        class Built(Exception):
            pass

        def recorder(planner_factory, **kwargs):
            raise Built(kwargs)

        monkeypatch.setattr(repro.distributed, "RemoteReplicaSet", recorder)
        flags = {
            "--replicas": "2",
            "--max-queue-depth": "9",
            "--admission-policy": "reject",
            "--drain-deadline": "0.01",
            "--heartbeat-interval": "0.2",
            "--heartbeat-misses": "20",
            "--probation-beats": "2",
        }
        with pytest.raises(Built) as excinfo:
            main(self.ARGV + [token for pair in flags.items() for token in pair])
        assert excinfo.value.args[0] == {
            "num_replicas": 2,
            "max_queue_depth": 9,
            "admission_policy": "reject",
            "drain_deadline": 0.01,
            "heartbeat_interval": 0.2,
            "heartbeat_misses": 20,
            "probation_beats": 2,
            "tracer": None,
            "tenant_factory": None,
        }


class TestTraceAndMetrics:
    """First tier-1 coverage of the two dump commands (and, through them, of
    the serving commands' shared workload fixture)."""

    SUMMARY = r"traced (\d+) of (\d+) request\(s\) at sample rate ([\d.]+) "

    def test_trace_dump_is_deterministic_and_matches_its_summary(self, tmp_path, capsys):
        ids = []
        for name in ("first.json", "second.json"):
            assert main(["trace", "--profile", "fast", "--output", str(tmp_path / name)]) == 0
            dump = json.loads((tmp_path / name).read_text())
            ids.append([trace["trace_id"] for trace in dump["traces"]])
            traced, admitted, rate = re.search(self.SUMMARY, capsys.readouterr().err).groups()
            assert int(traced) == int(admitted) == len(ids[-1]) > 0
            assert float(rate) == dump["sample_rate"] == 1.0
        assert ids[0] == ids[1]

    def test_trace_sample_rate_reaches_the_tracer(self, tmp_path, capsys):
        output = tmp_path / "sampled.json"
        argv = ["trace", "--profile", "fast", "--trace-sample-rate", "0.5", "--output", str(output)]
        assert main(argv) == 0
        dump = json.loads(output.read_text())
        traced, admitted, rate = re.search(self.SUMMARY, capsys.readouterr().err).groups()
        assert float(rate) == dump["sample_rate"] == 0.5
        assert 0 < int(traced) == len(dump["traces"]) < int(admitted)

    def test_metrics_json_dump_has_the_serving_and_cache_scopes(self, tmp_path):
        output = tmp_path / "metrics.json"
        argv = ["metrics", "--profile", "fast", "--metrics-format", "json", "--output", str(output)]
        assert main(argv) == 0
        snapshot = json.loads(output.read_text())
        names = [name for kind in ("counters", "gauges", "histograms") for name in snapshot[kind]]
        for scope in ("serve.loop.", "cache.plan.", "cache.decode."):
            assert any(name.startswith(scope) for name in names), scope
        # Both serving lanes are exported: steps answered at admission from a
        # resident plan, and everything a drain answered.
        loops = {
            name.rsplit(".", 1)[0] for name in snapshot["counters"] if name.endswith(".resident")
        }
        assert loops and all(scope.startswith("serve.loop.") for scope in loops)
        assert sum(snapshot["counters"][f"{scope}.resident"] for scope in loops) > 0

    def test_metrics_defaults_to_prometheus_text_on_stdout(self, capsys):
        assert main(["metrics", "--profile", "fast"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE " in out
        assert re.search(r"^serve_loop_\w+ \d", out, flags=re.MULTILINE)


README_LINES = re.findall(
    r"(?:python -m repro\.cli|repro-irs) ([a-z][^`#\n]*)",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(),
)


def test_the_readme_scan_finds_every_command_family():
    assert len(README_LINES) >= 15
    assert {line.split()[0] for line in README_LINES} >= set(HONOURED)


@pytest.mark.parametrize(
    "line",
    README_LINES,
    ids=[f"readme-{index}-{line.split()[0]}" for index, line in enumerate(README_LINES)],
)
def test_every_command_line_in_the_readme_resolves(line, monkeypatch):
    """Parsing is not enough: a documented command line must pass its rows'
    validation and ``serve-sim``'s cross-flag rules, with no ambient
    ``$REPRO_*``, as ``main`` resolves them before anything trains."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    args = build_parser().parse_args(shlex.split(line))
    resolve_args(args, args.artefact)
