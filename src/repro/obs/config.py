"""Configuration surface of the observability subsystem.

Two rows of the :mod:`repro.config` table (explicit argument >
environment variable > built-in default):

* ``trace_enabled`` (``REPRO_TRACE``) — whether request tracing is on at
  all.  **Defaults to off**: ``repro.perf.gate`` asserts that a disabled
  tracer is a structural no-op on the serving hot path (zero
  ``Trace``/``Span`` allocations), so production serving pays nothing for
  the subsystem's existence.
* ``trace_sample_rate`` (``REPRO_TRACE_SAMPLE_RATE``) — fraction of
  requests traced once tracing is on, in ``[0, 1]``.  Sampling is
  deterministic per (routing key, arrival ordinal), so the same seeded
  open-loop run always traces the same requests.

The environment hooks mirror the serving knobs' ``REPRO_*`` family: CI and
operators flip tracing on a whole run (``REPRO_TRACE=1``) without touching
any call site.
"""

from __future__ import annotations

from repro.config import CONFIG_FIELDS, resolve

__all__ = [
    "DEFAULT_TRACE_ENABLED",
    "DEFAULT_TRACE_SAMPLE_RATE",
    "resolve_trace_enabled",
    "resolve_trace_sample_rate",
]

DEFAULT_TRACE_ENABLED = CONFIG_FIELDS["trace_enabled"].default
DEFAULT_TRACE_SAMPLE_RATE = CONFIG_FIELDS["trace_sample_rate"].default


def resolve_trace_enabled(value: "bool | str | None" = None) -> bool:
    """Tracing switch: explicit > ``REPRO_TRACE`` > off."""
    return resolve("trace_enabled", value)


def resolve_trace_sample_rate(value: "float | None" = None) -> float:
    """Sampling fraction: explicit > ``REPRO_TRACE_SAMPLE_RATE`` > 1.0."""
    return resolve("trace_sample_rate", value)
