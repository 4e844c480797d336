"""``repro-irs``: regenerate the paper's artefacts and operate the serving stack.

Four command families, each a set of real argparse subcommands whose flags
are the :mod:`repro.config` rows (plus a few plain flags) the family names
in :data:`COMMANDS`.  ``repro-irs <command> --help`` lists them; a flag a
command does not name is a usage error (exit 2), never accepted and
dropped:

* the paper artefacts (``table1`` … ``ext-quality``; ``all`` regenerates
  every table and figure, the ablations and extensions run individually);
* ``serve-sim`` — open-loop Poisson traffic through the serving loop or
  the forked-worker fleet; with ``--tenants 2`` the two-tenant A/B
  harness instead;
* ``trace`` / ``metrics`` — one short traced workload, dumped as spans or
  as the process metrics registry.

:func:`resolve_args` is the one place flags become values — explicit flag >
``$REPRO_*`` > default for exactly the command's rows, then the cross-flag
rules — and it runs before any model trains.  Commands hand whole resolved
groups to constructors as keyword arguments
(:func:`repro.config.group_of`), so a flag cannot be parsed and not passed.
Every command takes ``--profile fast`` (seconds-scale) or ``default``.
:func:`main` raises ``ConfigurationError``; :func:`run`, the console script,
prints it as one ``error:`` line and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

from repro.cli.artefacts import ARTEFACTS, run_artefact
from repro.cli.profiles import PROFILES
from repro.cli.serving import run_metrics, run_serve_sim, run_trace
from repro.config import CONFIG_FIELDS, add_config_arguments, resolve
from repro.utils.exceptions import ConfigurationError
from repro.utils.logging import configure_logging

__all__ = ["COMMANDS", "build_parser", "resolve_args", "main", "run"]


@dataclass(frozen=True)
class Command:
    """One command family: what it runs and every flag it honours."""

    summary: str
    #: ``(args, knobs) -> exit code``
    handler: Callable
    #: plain flags (keys of ``_FLAGS``) beyond ``_UNIVERSAL``
    flags: "tuple[str, ...]"
    #: :mod:`repro.config` rows, resolved by :func:`resolve_args`
    rows: "tuple[str, ...]"


COMMANDS = {
    # The paper-artefact family: every name in ARTEFACTS takes these flags too.
    "all": Command(
        "every table and figure of the paper",
        run_artefact,
        ("dataset", "seed", "scale", "data_directory"),
        ("num_workers", "rollout_chunk_size"),
    ),
    "serve-sim": Command(
        "drive a serving front-end with synthetic traffic (--tenants 2: the A/B harness)",
        run_serve_sim,
        ("seed",),
        # every flagged row but the evaluation protocol's: it serves next_step
        # traffic, not evaluation rollouts
        tuple(n for n, row in CONFIG_FIELDS.items() if row.cli and row.group != "evaluation"),
    ),
    "trace": Command(
        "serve a short traced workload and dump every span as JSON",
        run_trace,
        ("seed",),
        ("arrival_rate", "trace_sample_rate"),
    ),
    "metrics": Command(
        "serve the same workload and dump the metrics registry",
        run_metrics,
        ("seed", "metrics_format"),
        ("arrival_rate",),
    ),
}

#: The plain flags: not knobs of the serving stack, so not table rows.
_FLAGS = {
    "profile": dict(
        choices=PROFILES,
        default="default",
        help="'fast' runs a seconds-scale smoke configuration",
    ),
    "output": dict(default=None, help="write the report / dump to this file"),
    "log_level": dict(
        default=None,
        help=(
            "logging threshold for the repro.* loggers, as a name (DEBUG, "
            "INFO, ...) or numeric level (default: $REPRO_LOG_LEVEL or INFO)"
        ),
    ),
    "dataset": dict(
        choices=["movielens", "lastfm"], default="movielens", help="which corpus to reproduce on"
    ),
    "seed": dict(type=int, default=0, help="random seed (default: 0)"),
    "scale": dict(type=float, default=None, help="override the corpus scale"),
    "data_directory": dict(
        default=None,
        help="path to a real MovieLens-1M / Lastfm dump (otherwise synthetic data is used)",
    ),
    "metrics_format": dict(
        choices=["prometheus", "json"],
        default="prometheus",
        help="dump format for the registry snapshot",
    ),
}

_UNIVERSAL = ("profile", "output", "log_level")


def _family(command: str) -> Command:
    return COMMANDS.get(command, COMMANDS["all"])


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per artefact and serving command, generated from
    :data:`COMMANDS`; ``args.artefact`` is the subcommand's name."""
    parser = argparse.ArgumentParser(
        prog="repro-irs",
        description=(
            "Reproduce the tables and figures of 'Influential Recommender System' "
            "(ICDE 2023) and operate the serving stack built around the IRN planner."
        ),
    )
    commands = parser.add_subparsers(dest="artefact", metavar="command", required=True)
    summaries = {name: artefact.title for name, artefact in ARTEFACTS.items()}
    summaries.update((name, command.summary) for name, command in COMMANDS.items())
    for name, summary in summaries.items():
        command = _family(name)
        sub = commands.add_parser(name, help=summary, description=summary)
        for flag in _UNIVERSAL + command.flags:
            sub.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
        add_config_arguments(sub, command.rows)
    return parser


def _check_serve_sim(knobs: dict, given: set) -> None:
    """The cross-flag rules of ``serve-sim``, checked after per-row validation.

    ``given`` is the set of rows whose flag was typed: a flag only one mode
    reads is an error in the other mode, an ambient ``$REPRO_*`` value is not.
    """
    refit_at, duration = knobs["refit_at"], knobs["serve_duration"]
    if refit_at is not None and refit_at >= duration:
        raise ConfigurationError(
            f"refit_at ({refit_at}s) must fall strictly inside the traffic "
            f"window (--duration {duration}s): a refit armed at or past the end "
            f"of the trace would never overlap serving"
        )
    if "candidate_k" in given and knobs["retrieval_spec"] == "none":
        raise ConfigurationError(
            "--candidate-k sizes the retrieval shortlist and requires "
            "--retrieval (full | ann | cooccurrence)"
        )
    if knobs["tenants"] > 2:
        raise ConfigurationError(
            f"--tenants {knobs['tenants']} is not supported: the A/B harness "
            "compares exactly 2 tenants (1 = single-tenant serve-sim)"
        )
    ab = knobs["tenants"] == 2
    for applies, rows, mode in (
        (
            knobs["transport"] == "process",
            ("num_replicas", "heartbeat_interval", "heartbeat_misses", "probation_beats"),
            "--transport process (in process one serving loop answers, with no heartbeats)",
        ),
        (
            not ab,
            ("arrival_rate", "serve_duration", "refit_at", "trace_sample_rate"),
            "--tenants 1 (the A/B harness drives closed-loop session traffic, untraced)",
        ),
        (ab, ("cohort_sessions", "slo_p95"), "--tenants 2 (the A/B harness)"),
    ):
        typed = [CONFIG_FIELDS[name].flag_name for name in rows if name in given]
        if typed and not applies:
            raise ConfigurationError(f"{' / '.join(typed)}: only read under {mode}")


def resolve_args(args: argparse.Namespace, command: str) -> dict:
    """``{row name: value}`` for exactly the rows ``command`` takes.

    Each row resolves explicit flag > ``$REPRO_*`` > default through
    :func:`repro.config.resolve` (``ConfigurationError`` names the knob and
    its source); then the cross-flag rules run.  Nothing here fits a model.
    """
    rows = _family(command).rows
    typed = {name: getattr(args, CONFIG_FIELDS[name].dest) for name in rows}
    knobs = {name: resolve(name, value) for name, value in typed.items()}
    if command == "serve-sim":
        _check_serve_sim(knobs, {name for name, value in typed.items() if value is not None})
    return knobs


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; raises ``ConfigurationError`` on bad configuration."""
    args = build_parser().parse_args(argv)
    # Logging threshold applies before any model trains, so admission /
    # refit / generation-guard log lines honour it from the first request.
    configure_logging(args.log_level)
    return _family(args.artefact).handler(args, resolve_args(args, args.artefact))


def run(argv: "list[str] | None" = None) -> int:
    """Console entry point: like :func:`main`, but configuration mistakes
    exit nonzero with one clear ``error:`` line instead of a traceback
    (``main`` keeps raising so programmatic callers and tests can match the
    exception)."""
    try:
        return main(argv)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
