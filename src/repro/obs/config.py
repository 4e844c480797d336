"""Configuration surface of the observability subsystem.

Two knobs, resolved with the serving subsystem's precedence rule
(explicit argument > environment variable > built-in default):

* ``trace_enabled`` (``REPRO_TRACE``) — whether request tracing is on at
  all.  **Defaults to off**: ``repro.perf.gate`` asserts that a disabled
  tracer is a structural no-op on the serving hot path (zero
  ``Trace``/``Span`` allocations), so production serving pays nothing for
  the subsystem's existence.
* ``trace_sample_rate`` (``REPRO_TRACE_SAMPLE_RATE``) — fraction of
  requests traced once tracing is on, in ``[0, 1]``.  Sampling is
  deterministic per (routing key, arrival ordinal), so the same seeded
  open-loop run always traces the same requests.

The environment hooks mirror the ``REPRO_NUM_WORKERS`` family: CI and
operators flip tracing on a whole run (``REPRO_TRACE=1``) without touching
any call site.
"""

from __future__ import annotations

import os

from repro.utils.exceptions import ConfigurationError

__all__ = [
    "DEFAULT_TRACE_ENABLED",
    "DEFAULT_TRACE_SAMPLE_RATE",
    "resolve_trace_enabled",
    "resolve_trace_sample_rate",
]

_ENV_TRACE = "REPRO_TRACE"
_ENV_TRACE_SAMPLE_RATE = "REPRO_TRACE_SAMPLE_RATE"

DEFAULT_TRACE_ENABLED = False
DEFAULT_TRACE_SAMPLE_RATE = 1.0

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


def _resolve(value, env_var: str, default, parse):
    if value is not None:
        return parse(value, "argument")
    env = os.environ.get(env_var)
    if env is not None and env != "":
        return parse(env, f"${env_var}")
    return default


def resolve_trace_enabled(value: "bool | str | None" = None) -> bool:
    """Tracing switch: explicit > ``REPRO_TRACE`` > off."""

    def parse(raw, source):
        if isinstance(raw, bool):
            return raw
        text = str(raw).lower()
        if text in _TRUTHY:
            return True
        if text in _FALSY:
            return False
        raise ConfigurationError(
            f"trace_enabled must be one of {_TRUTHY + _FALSY}, got {raw!r} "
            f"(from {source})"
        )

    return _resolve(value, _ENV_TRACE, DEFAULT_TRACE_ENABLED, parse)


def resolve_trace_sample_rate(value: "float | None" = None) -> float:
    """Sampling fraction: explicit > ``REPRO_TRACE_SAMPLE_RATE`` > 1.0."""

    def parse(raw, source):
        try:
            rate = float(raw)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"trace_sample_rate must be a number, got {raw!r} (from {source})"
            ) from None
        if rate != rate or not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"trace_sample_rate must be in [0, 1], got {rate} (from {source})"
            )
        return rate

    return _resolve(value, _ENV_TRACE_SAMPLE_RATE, DEFAULT_TRACE_SAMPLE_RATE, parse)
