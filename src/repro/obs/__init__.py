"""Unified observability: trace spans, metrics registry, exporters.

See :mod:`repro.obs.registry` for the single-locked metrics registry,
:mod:`repro.obs.trace` for deterministic per-request trace spans, and
:mod:`repro.obs.export` for the JSON / Prometheus-text exporters.  The
whole subsystem is off by default and allocates nothing when off; when on
it allocates a bounded number of spans per request.  Both are counted by
the ``observability`` section of :mod:`repro.perf.bench` and enforced by
:mod:`repro.perf.gate`; what a span costs in time is for
``benchmarks/e2e`` to measure.
"""

from repro.obs.config import (
    DEFAULT_TRACE_ENABLED,
    DEFAULT_TRACE_SAMPLE_RATE,
    resolve_trace_enabled,
    resolve_trace_sample_rate,
)
from repro.obs.export import (
    metrics_snapshot,
    metrics_to_json,
    metrics_to_prometheus,
    traces_to_json,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricGroup,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.trace import (
    NULL_TRACER,
    BatchSink,
    Span,
    Trace,
    Tracer,
    current_sink,
    use_sink,
)

__all__ = [
    "BatchSink",
    "Counter",
    "DEFAULT_TRACE_ENABLED",
    "DEFAULT_TRACE_SAMPLE_RATE",
    "Gauge",
    "Histogram",
    "MetricGroup",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "Trace",
    "Tracer",
    "current_sink",
    "get_registry",
    "metrics_snapshot",
    "metrics_to_json",
    "metrics_to_prometheus",
    "resolve_trace_enabled",
    "resolve_trace_sample_rate",
    "set_registry",
    "traces_to_json",
    "use_sink",
]
