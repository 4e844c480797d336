"""One declarative resolver table for the serving, evaluation and tracing knobs.

Each knob is a :class:`ConfigField` row declaring its typed parser, its
environment variable (derived from the field name unless history says
otherwise — ``num_replicas`` reads ``REPRO_REPLICAS``; CLI-only rows set
``from_env=False``), its CLI flag spelling, its group and its help text.
Resolution is always explicit argument > ``$REPRO_*`` > built-in default,
and everything downstream is generated from the rows:

* the ``resolve_<knob>()`` functions the constructors call
  (``repro.obs.config`` wraps the two tracing rows);
* the ``repro-irs`` flags: each command in :mod:`repro.cli` names the rows
  it takes and :func:`add_config_arguments` emits exactly those, one
  ``argparse`` group per knob group, so a knob is one table row and a flag
  a command does not name is a usage error;
* the single ConfigurationError format:
  ``"<knob> must be <expectation>, got <value!r> (from <source>)"`` where
  the source is ``argument`` or ``$REPRO_<NAME>``.

A group is the set of rows one consumer takes, under the keyword names it
takes them by: ``evaluation`` is ``ExperimentConfig``'s (``num_workers``
threads the offline evaluation protocol — the one parallel path — and is
CLI-only), ``admission`` the serving loop's and both fleets',
``replication`` both fleets', and ``transport`` is the fleet selector plus
the failure-detector arguments of the fleet it selects.

Not in the table, because their owners sit below this module:
``REPRO_LOG_LEVEL`` (:mod:`repro.utils.logging`) and
``REPRO_INFERENCE_DTYPE`` (:mod:`repro.nn.tensor`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.utils.exceptions import ConfigurationError

__all__ = [
    "ConfigField",
    "CONFIG_FIELDS",
    "GROUP_TITLES",
    "resolve",
    "group_of",
    "add_config_arguments",
    # valid-choice tuples (historically exported by the package configs)
    "VALID_ADMISSION_POLICIES",
    "VALID_DISPATCH_POLICIES",
    "VALID_TRANSPORTS",
    "RETRIEVAL_SPECS",
    # typed resolvers
    "resolve_max_queue_depth",
    "resolve_admission_policy",
    "resolve_drain_deadline",
    "resolve_arrival_rate",
    "resolve_serve_duration",
    "resolve_num_workers",
    "resolve_num_replicas",
    "resolve_refit_at",
    "resolve_dispatch_policy",
    "resolve_transport",
    "resolve_heartbeat_interval",
    "resolve_heartbeat_misses",
    "resolve_probation_beats",
    "resolve_retrieval_spec",
    "resolve_tenants",
    "resolve_cohort_sessions",
    "resolve_slo_p95",
]

VALID_ADMISSION_POLICIES = ("block", "reject")
VALID_DISPATCH_POLICIES = ("least_loaded", "round_robin")
VALID_TRANSPORTS = ("inproc", "process")
RETRIEVAL_SPECS = ("none", "full", "ann", "cooccurrence")


# --------------------------------------------------------------------- #
# Typed parsers.  Each returns a ``(raw, source) -> value`` closure; every
# error names the knob and the source (``argument`` or ``$REPRO_<NAME>``).
# --------------------------------------------------------------------- #
def int_at_least(name: str, minimum: int = 1, hint: str = "") -> Callable:
    def parse(raw, source):
        try:
            parsed = int(raw)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{name} must be an integer, got {raw!r} (from {source})"
            ) from None
        if parsed < minimum:
            raise ConfigurationError(
                f"{name} must be at least {minimum}, got {parsed} (from {source}){hint}"
            )
        return parsed

    return parse


def choice_of(name: str, choices: tuple) -> Callable:
    def parse(raw, source):
        value = str(raw).lower()
        if value not in choices:
            raise ConfigurationError(
                f"{name} must be one of {', '.join(choices)}, got {raw!r} (from {source})"
            )
        return value

    return parse


def float_in(name: str, expectation: str, in_range: Callable, noun: str = "a number") -> Callable:
    """A float parser: finite and ``in_range(parsed)``, or the error reads
    ``"<name> must be <expectation>"``."""

    def parse(raw, source):
        try:
            parsed = float(raw)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{name} must be {noun}, got {raw!r} (from {source})"
            ) from None
        if not (math.isfinite(parsed) and in_range(parsed)):
            raise ConfigurationError(
                f"{name} must be {expectation}, got {parsed} (from {source})"
            )
        return parsed

    return parse


def _positive(value: float) -> bool:
    return value > 0


def _seconds(name: str) -> Callable:
    return float_in(name, "positive finite seconds", _positive, noun="a number of seconds")


def _retrieval_spec_parse(raw, source):
    spec = (str(raw) if raw is not None else "none").strip().lower() or "none"
    if spec not in RETRIEVAL_SPECS:
        raise ConfigurationError(
            f"unknown retrieval spec '{raw}'; known: {', '.join(RETRIEVAL_SPECS)}"
        )
    return spec


_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


def _switch_parse(raw, source):
    if isinstance(raw, bool):
        return raw
    text = str(raw).lower()
    if text not in _TRUTHY + _FALSY:
        raise ConfigurationError(
            f"trace_enabled must be one of {_TRUTHY + _FALSY}, got {raw!r} "
            f"(from {source})"
        )
    return text in _TRUTHY


# --------------------------------------------------------------------- #
# The table.
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ConfigField:
    """One knob: its group, parser, env hook, CLI flag and documentation."""

    name: str
    group: str
    default: Any
    parse: Callable
    help: str
    #: environment variable; derived ``REPRO_<NAME>`` unless overridden
    env: "str | None" = None
    #: CLI flag; derived ``--<name-with-dashes>`` unless overridden
    flag: "str | None" = None
    #: whether :func:`add_config_arguments` emits a flag for this knob
    cli: bool = True
    #: whether :func:`resolve` consults the environment (CLI-only rows don't)
    from_env: bool = True

    @property
    def env_var(self) -> str:
        return self.env if self.env is not None else "REPRO_" + self.name.upper()

    @property
    def flag_name(self) -> str:
        return self.flag if self.flag is not None else "--" + self.name.replace("_", "-")

    @property
    def dest(self) -> str:
        return self.flag_name.lstrip("-").replace("-", "_")


GROUP_TITLES = {
    "traffic": "traffic (repro.serve.driver)",
    "admission": "admission (repro.serve)",
    "evaluation": "evaluation (repro.evaluation)",
    "replication": "replication (repro.replica)",
    "transport": "transport (repro.distributed)",
    "retrieval": "retrieval (repro.retrieval)",
    "tenancy": "tenancy (repro.tenant)",
    "observability": "observability (repro.obs)",
}

_TABLE = (
    # ------------------------------ traffic ------------------------------ #
    ConfigField(
        "arrival_rate",
        "traffic",
        100.0,
        float_in("arrival_rate", "finite positive requests/second", _positive),
        "mean Poisson arrivals/sec (default: $REPRO_ARRIVAL_RATE or 100)",
    ),
    ConfigField(
        "serve_duration",
        "traffic",
        2.0,
        float_in("serve_duration", "finite positive seconds", _positive),
        "seconds of synthetic traffic (default: $REPRO_SERVE_DURATION or 2)",
        flag="--duration",
    ),
    ConfigField(
        "refit_at",
        "traffic",
        None,
        _seconds("refit_at"),
        "seconds into the trace to trigger a hot refit; must fall strictly "
        "inside --duration (default: $REPRO_REFIT_AT or no refit)",
    ),
    # ----------------------------- admission ----------------------------- #
    ConfigField(
        "max_queue_depth",
        "admission",
        64,
        int_at_least("max_queue_depth"),
        "bound on the serving queue's planning work "
        "(default: $REPRO_MAX_QUEUE_DEPTH or 64)",
    ),
    ConfigField(
        "drain_deadline",
        "admission",
        0.002,
        float_in(
            "drain_deadline",
            "finite non-negative seconds (0 drains immediately)",
            lambda value: value >= 0,
        ),
        "seconds a drain holds a queue open to fuse replans into one "
        "micro-batch; a step served from a resident plan never waits for it "
        "(default: $REPRO_DRAIN_DEADLINE or 0.002)",
    ),
    ConfigField(
        "admission_policy",
        "admission",
        "block",
        choice_of("admission_policy", VALID_ADMISSION_POLICIES),
        "block | reject on a full queue (default: $REPRO_ADMISSION_POLICY or block)",
    ),
    # ---------------------------- evaluation ----------------------------- #
    ConfigField(
        "num_workers",
        "evaluation",
        1,
        int_at_least("num_workers", hint="; use 1 to evaluate inline"),
        "threads the offline evaluation protocol partitions its rollouts and "
        "next-item ranking across (default: 1)",
        from_env=False,
    ),
    ConfigField(
        "rollout_chunk_size",
        "evaluation",
        None,  # ExperimentConfig's own default (64) applies
        int_at_least("--rollout-chunk-size"),
        "evaluation instances per batched Algorithm-1 rollout call (default: 64)",
        from_env=False,
    ),
    # ---------------------------- replication ---------------------------- #
    ConfigField(
        "num_replicas",
        "replication",
        1,
        int_at_least("num_replicas"),
        "backbone replicas behind the dispatcher (default: $REPRO_REPLICAS or 1)",
        env="REPRO_REPLICAS",
        flag="--replicas",
    ),
    ConfigField(
        "dispatch_policy",
        "replication",
        "least_loaded",
        choice_of("dispatch_policy", VALID_DISPATCH_POLICIES),
        "least_loaded | round_robin replica routing "
        "(default: $REPRO_DISPATCH_POLICY or least_loaded)",
    ),
    # ----------------------------- transport ----------------------------- #
    ConfigField(
        "transport",
        "transport",
        "inproc",
        choice_of("transport", VALID_TRANSPORTS),
        "inproc | process replica transport; 'process' forks one worker per "
        "replica behind the binary wire protocol "
        "(default: $REPRO_TRANSPORT or inproc)",
    ),
    ConfigField(
        "heartbeat_interval",
        "transport",
        0.05,
        _seconds("heartbeat_interval"),
        "seconds between worker heartbeats under --transport process "
        "(default: $REPRO_HEARTBEAT_INTERVAL or 0.05)",
    ),
    ConfigField(
        "heartbeat_misses",
        "transport",
        5,
        int_at_least("heartbeat_misses"),
        "consecutive missed heartbeats before a worker is suspected "
        "(default: $REPRO_HEARTBEAT_MISSES or 5)",
    ),
    ConfigField(
        "probation_beats",
        "transport",
        3,
        int_at_least("probation_beats"),
        "heartbeats a suspected worker must deliver to rejoin dispatch "
        "(default: $REPRO_PROBATION_BEATS or 3)",
    ),
    # ----------------------------- retrieval ----------------------------- #
    # CLI-only: library callers pass ``None`` to mean "no pruning", so there
    # is no ambient environment default to fall back to.
    ConfigField(
        "retrieval_spec",
        "retrieval",
        "none",
        _retrieval_spec_parse,
        "candidate-generation backend for two-stage retrieval (none | full | "
        "ann | cooccurrence; default: none = exact full-vocab scoring)",
        flag="--retrieval",
        from_env=False,
    ),
    ConfigField(
        "candidate_k",
        "retrieval",
        256,
        int_at_least("--candidate-k", hint="; it is the generator's num_candidates"),
        "candidate-set size per context for --retrieval "
        "(default: 256; requires --retrieval)",
        from_env=False,
    ),
    # ------------------------------ tenancy ------------------------------ #
    ConfigField(
        "tenants",
        "tenancy",
        1,
        int_at_least("tenants"),
        "tenant bindings behind the serving fleet; 2 runs the two-tenant A/B "
        "harness over simulated cohorts (default: $REPRO_TENANTS or 1)",
    ),
    ConfigField(
        "cohort_sessions",
        "tenancy",
        24,
        int_at_least("cohort_sessions"),
        "simulated user sessions per tenant cohort in the A/B harness "
        "(default: $REPRO_COHORT_SESSIONS or 24)",
    ),
    ConfigField(
        "slo_p95",
        "tenancy",
        0.25,
        _seconds("slo_p95"),
        "per-tenant p95 latency SLO in seconds, graded in the A/B report "
        "(default: $REPRO_SLO_P95 or 0.25)",
    ),
    # --------------------------- observability --------------------------- #
    # What the two knobs mean is repro.obs.config's docstring.
    ConfigField(
        "trace_enabled",
        "observability",
        False,
        _switch_parse,
        "whether request tracing is on (default: $REPRO_TRACE or off)",
        env="REPRO_TRACE",
        cli=False,
    ),
    ConfigField(
        "trace_sample_rate",
        "observability",
        1.0,
        float_in("trace_sample_rate", "in [0, 1]", lambda value: 0.0 <= value <= 1.0),
        "fraction of requests traced, deterministically, in [0, 1]; on "
        "serve-sim giving the flag is what turns tracing on "
        "(default: $REPRO_TRACE_SAMPLE_RATE or 1.0)",
    ),
)

CONFIG_FIELDS: "dict[str, ConfigField]" = {row.name: row for row in _TABLE}


def group_of(knobs: dict, group: str) -> dict:
    """The ``group`` rows of a resolved ``{row name: value}`` dict — the
    keyword arguments of that group's consumer."""
    return {name: value for name, value in knobs.items() if CONFIG_FIELDS[name].group == group}


def resolve(name: str, value: Any = None) -> Any:
    """Resolve one knob: explicit argument > ``$REPRO_*`` env > default."""
    row = CONFIG_FIELDS[name]
    if value is not None:
        return row.parse(value, "argument")
    env = os.environ.get(row.env_var) if row.from_env else None
    if env is not None and env != "":
        return row.parse(env, f"${row.env_var}")
    return row.default


def add_config_arguments(parser, names: "tuple[str, ...]") -> None:
    """Emit the flags of the ``names`` rows, one argparse group per knob group.

    Flags are collected as raw strings (``default=None``) and validated by
    :func:`resolve`, so a mistyped value surfaces as a
    :class:`~repro.utils.exceptions.ConfigurationError` naming the source
    and the ``$REPRO_*`` environment defaults keep applying when a flag is
    omitted.
    """
    for group, title in GROUP_TITLES.items():
        rows = [row for row in _TABLE if row.cli and row.group == group and row.name in names]
        if rows:
            section = parser.add_argument_group(title)
            for row in rows:
                section.add_argument(row.flag_name, dest=row.dest, default=None, help=row.help)


# --------------------------------------------------------------------- #
# Typed resolvers for the constructors (and tests) that take one knob.
# --------------------------------------------------------------------- #
def resolve_max_queue_depth(value: "int | None" = None) -> int:
    """Queue bound: explicit > ``REPRO_MAX_QUEUE_DEPTH`` > 64."""
    return resolve("max_queue_depth", value)


def resolve_admission_policy(value: "str | None" = None) -> str:
    """Back-pressure policy: explicit > ``REPRO_ADMISSION_POLICY`` > block."""
    return resolve("admission_policy", value)


def resolve_drain_deadline(value: "float | None" = None) -> float:
    """Micro-batch window: explicit > ``REPRO_DRAIN_DEADLINE`` > 0.002 s."""
    return resolve("drain_deadline", value)


def resolve_arrival_rate(value: "float | None" = None) -> float:
    """Poisson arrival rate: explicit > ``REPRO_ARRIVAL_RATE`` > 100 req/s."""
    return resolve("arrival_rate", value)


def resolve_serve_duration(value: "float | None" = None) -> float:
    """Simulated traffic duration: explicit > ``REPRO_SERVE_DURATION`` > 2 s."""
    return resolve("serve_duration", value)


def resolve_num_workers(value: "int | None" = None) -> int:
    """Evaluation thread count: explicit > 1 (there is no environment hook)."""
    return resolve("num_workers", value)


def resolve_num_replicas(value: "int | None" = None) -> int:
    """Replica count: explicit > ``REPRO_REPLICAS`` > 1."""
    return resolve("num_replicas", value)


def resolve_refit_at(value: "float | None" = None) -> "float | None":
    """Hot-refit trigger offset: explicit > ``REPRO_REFIT_AT`` > no refit."""
    return resolve("refit_at", value)


def resolve_dispatch_policy(value: "str | None" = None) -> str:
    """Routing policy: explicit > ``REPRO_DISPATCH_POLICY`` > least_loaded."""
    return resolve("dispatch_policy", value)


def resolve_transport(value: "str | None" = None) -> str:
    """Serving transport: explicit > ``REPRO_TRANSPORT`` > ``inproc``."""
    return resolve("transport", value)


def resolve_heartbeat_interval(value: "float | None" = None) -> float:
    """Heartbeat period: explicit > ``REPRO_HEARTBEAT_INTERVAL`` > 0.05 s."""
    return resolve("heartbeat_interval", value)


def resolve_heartbeat_misses(value: "int | None" = None) -> int:
    """Missed-heartbeat budget: explicit > ``REPRO_HEARTBEAT_MISSES`` > 5."""
    return resolve("heartbeat_misses", value)


def resolve_probation_beats(value: "int | None" = None) -> int:
    """Probation window: explicit > ``REPRO_PROBATION_BEATS`` > 3 beats."""
    return resolve("probation_beats", value)


def resolve_retrieval_spec(value: "str | None" = None) -> str:
    """Retrieval spec: explicit > ``none`` (``None`` and blank strings mean
    "no pruning"; there is no environment hook)."""
    return resolve("retrieval_spec", value)


def resolve_tenants(value: "int | None" = None) -> int:
    """Tenant count: explicit > ``REPRO_TENANTS`` > 1."""
    return resolve("tenants", value)


def resolve_cohort_sessions(value: "int | None" = None) -> int:
    """A/B cohort size: explicit > ``REPRO_COHORT_SESSIONS`` > 24."""
    return resolve("cohort_sessions", value)


def resolve_slo_p95(value: "float | None" = None) -> float:
    """Per-tenant p95 latency SLO: explicit > ``REPRO_SLO_P95`` > 0.25 s."""
    return resolve("slo_p95", value)
