"""Per-request trace spans with deterministic, reproducible identifiers.

A :class:`Trace` rides inside the :class:`~repro.serve.request.ServeRequest`
envelope and collects :class:`Span` records — named wall-clock intervals
with attributes — as the request moves through admission, queue wait,
micro-batch drain, beam expansion and cache decisions.  Three properties
shape the design:

**Deterministic identifiers.**  A trace ID is derived from the request's
routing key (``stable_hash`` of the context key) plus a per-key arrival
ordinal, *not* from wall time or object identity, so the same seeded
open-loop run produces the same trace IDs every time — traces are
diffable across runs, and ``repro.perf.gate`` asserts exactly that.
Sampling decisions hash the same pair, so *which* requests get traced is
reproducible too.  Span IDs are ``<trace_id>/<name>#<n>`` with ``n`` the
occurrence ordinal of that span name within the trace.

**Zero cost when off.**  A disabled :class:`Tracer` (the default — see
:mod:`repro.obs.config`) makes :meth:`Tracer.begin` return ``None`` after
one attribute check; every hot-path instrumentation site guards on
``tracer.enabled`` / ``request.trace is not None`` and allocates nothing.
The tracer counts every ``Trace``/``Span`` it allocates in the registry
group ``obs.trace``; :mod:`repro.perf.bench` reads those counters to prove
the disabled path is a structural no-op (allocation delta == 0) and that
the enabled path stays inside its spans-per-request budget.

**Batch-to-request fan-out.**  Micro-batch stages (planning, per-depth
beam expansion) do work for many requests in one call, below the layer that
knows about :class:`ServeRequest`.  The drain thread installs a
:class:`BatchSink` — a thread-local carrying the traces of the batch — and
deep stages broadcast batch-wide spans through :func:`current_sink` without
any signature changes.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.obs.config import resolve_trace_enabled, resolve_trace_sample_rate
from repro.obs.registry import MetricGroup, MetricsRegistry, get_registry
from repro.shard.partition import stable_hash

__all__ = [
    "Span",
    "Trace",
    "Tracer",
    "NULL_TRACER",
    "BatchSink",
    "current_sink",
    "use_sink",
]

#: Fixed registry scope for the tracer's process-wide allocation counters.
TRACE_METRICS_SCOPE = "obs.trace"

# 2^53: stable_hash fractions compared against the sample rate use the top
# 53 bits so the quotient is exactly representable as a float.
_SAMPLE_DENOMINATOR = float(1 << 53)


class Span:
    """One named wall-clock interval inside a trace."""

    __slots__ = ("span_id", "name", "start", "end", "attrs")

    def __init__(self, span_id: str, name: str, start: float, end: float, attrs: dict):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start_s": round(self.start, 6),
            "duration_ms": round(self.duration_ms, 3),
            "attrs": dict(self.attrs),
        }


class Trace:
    """The spans of one request; append-safe from concurrent threads."""

    __slots__ = ("trace_id", "attrs", "spans", "_lock", "_name_counts", "_finished")

    def __init__(self, trace_id: str, attrs: dict):
        self.trace_id = trace_id
        self.attrs = attrs
        self.spans: "list[Span]" = []
        self._lock = threading.Lock()
        self._name_counts: "dict[str, int]" = {}
        self._finished = False

    def span(self, name: str, start: float, end: float, **attrs) -> Span:
        """Record a completed interval.  Span IDs number repeated names
        (``beam.depth#0``, ``beam.depth#1`` …) in recording order."""
        with self._lock:
            ordinal = self._name_counts.get(name, 0)
            self._name_counts[name] = ordinal + 1
            span = Span(f"{self.trace_id}/{name}#{ordinal}", name, start, end, attrs)
            self.spans.append(span)
        return span

    @contextmanager
    def timed(self, name: str, **attrs) -> "Iterator[None]":
        """Record the span of the ``with`` body."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.span(name, start, time.perf_counter(), **attrs)

    def to_dict(self) -> dict:
        with self._lock:
            spans = [span.to_dict() for span in self.spans]
        return {
            "trace_id": self.trace_id,
            "attrs": dict(self.attrs),
            "spans": spans,
        }


class Tracer:
    """Creates traces; owns sampling, identity and allocation accounting.

    ``enabled`` / ``sample_rate`` default through
    :func:`~repro.obs.config.resolve_trace_enabled` and
    :func:`~repro.obs.config.resolve_trace_sample_rate` (``REPRO_TRACE`` /
    ``REPRO_TRACE_SAMPLE_RATE``), so the process-default tracer is **off**
    and serving pays one boolean check per request.
    """

    def __init__(
        self,
        enabled: "bool | None" = None,
        sample_rate: "float | None" = None,
        capacity: int = 4096,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.enabled = resolve_trace_enabled(enabled)
        self.sample_rate = resolve_trace_sample_rate(sample_rate)
        self.capacity = int(capacity)
        registry = registry if registry is not None else get_registry()
        # Fixed scope: allocation counts are a process-wide property (the
        # disabled no-op contract), not a per-tracer one.
        self._metrics = MetricGroup(
            registry,
            TRACE_METRICS_SCOPE,
            counters=("traces", "spans", "sampled_out", "dropped"),
        )
        self._lock = threading.Lock()
        self._sequences: "dict[int, int]" = {}
        self._traces: "list[Trace]" = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def begin(self, routing_key, **attrs) -> "Trace | None":
        """Start a trace for a request, or ``None`` (disabled / sampled out).

        The trace ID is ``<key_hash:012x>-<seq>`` where ``seq`` counts prior
        requests with the same routing-key hash.  The seeded open-loop
        driver submits requests single-threaded in schedule order, so the
        per-key ordinal — and therefore every trace ID — is identical
        across identically-seeded runs.
        """
        if not self.enabled:
            return None
        key_hash = stable_hash(routing_key)
        with self._lock:
            sequence = self._sequences.get(key_hash, 0)
            self._sequences[key_hash] = sequence + 1
        if self.sample_rate < 1.0:
            # Deterministic sampling: hash the (key, ordinal) pair rather
            # than drawing randomness, so reruns trace the same requests.
            fraction = (stable_hash((key_hash, sequence)) >> 11) / _SAMPLE_DENOMINATOR
            if fraction >= self.sample_rate:
                self._metrics.record(add={"sampled_out": 1})
                return None
        trace = Trace(f"{key_hash & 0xFFFFFFFFFFFF:012x}-{sequence}", attrs)
        with self._lock:
            if len(self._traces) < self.capacity:
                self._traces.append(trace)
                retained = True
            else:
                retained = False
        self._metrics.record(add={"traces": 1} if retained else {"traces": 1, "dropped": 1})
        return trace

    def finish(self, trace: "Trace | None") -> None:
        """Seal a trace (called once the request's future is about to
        resolve) and account its spans."""
        if trace is None or trace._finished:
            return
        trace._finished = True
        with trace._lock:
            num_spans = len(trace.spans)
        if num_spans:
            self._metrics.record(add={"spans": num_spans})

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def export(self) -> "list[dict]":
        """Every retained trace as a JSON-ready list, in begin order."""
        with self._lock:
            traces = list(self._traces)
        return [trace.to_dict() for trace in traces]

    def trace_ids(self) -> "list[str]":
        with self._lock:
            return [trace.trace_id for trace in self._traces]

    def summary(self) -> dict:
        """Per-span-name aggregates (count / total / mean / max ms)."""
        totals: "dict[str, list]" = {}
        with self._lock:
            traces = list(self._traces)
        for trace in traces:
            with trace._lock:
                spans = list(trace.spans)
            for span in spans:
                entry = totals.setdefault(span.name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += span.duration_ms
                if span.duration_ms > entry[2]:
                    entry[2] = span.duration_ms
        return {
            name: {
                "count": count,
                "total_ms": round(total, 3),
                "mean_ms": round(total / count, 3) if count else 0.0,
                "max_ms": round(peak, 3),
            }
            for name, (count, total, peak) in sorted(totals.items())
        }

    def counters(self) -> dict:
        """The ``obs.trace`` allocation counters (traces / spans /
        sampled_out / dropped) — shared by every tracer in the process."""
        return self._metrics.values()

    def reset(self) -> None:
        with self._lock:
            self._sequences.clear()
            self._traces.clear()


#: The process-default disabled tracer: serving components fall back to it
#: when no tracer is injected, making instrumentation a no-op by default.
NULL_TRACER = Tracer(enabled=False)


class BatchSink:
    """Thread-local bridge from batch-wide stages to per-request traces.

    ``traces`` is aligned with the micro-batch's request order; entries are
    ``None`` for untraced requests.  Deep stages (the planner) call :meth:`batch_span` to broadcast an interval to every traced
    request in the batch, or :meth:`request_span` to target one position.
    """

    __slots__ = ("traces", "_any")

    def __init__(self, traces: "Sequence[Trace | None]"):
        self.traces = list(traces)
        self._any = any(trace is not None for trace in self.traces)

    def __bool__(self) -> bool:
        return self._any

    def batch_span(self, name: str, start: float, end: float, **attrs) -> None:
        for trace in self.traces:
            if trace is not None:
                trace.span(name, start, end, **attrs)

    def request_span(
        self, index: int, name: str, start: float, end: float, **attrs
    ) -> None:
        if 0 <= index < len(self.traces):
            trace = self.traces[index]
            if trace is not None:
                trace.span(name, start, end, **attrs)


_LOCAL = threading.local()


def current_sink() -> "BatchSink | None":
    """The sink of the micro-batch being served on this thread, if any.

    One thread-local attribute read — cheap enough for hot paths to call
    unconditionally, and ``None`` whenever tracing is off or the caller is
    not inside a traced drain.
    """
    return getattr(_LOCAL, "sink", None)


@contextmanager
def use_sink(sink: "BatchSink | None") -> "Iterator[None]":
    """Install ``sink`` as this thread's batch sink for the ``with`` body.

    Passing ``None`` (or an all-``None`` sink) keeps the previous state —
    callers never need their own enabled-check.  Shard worker lambdas
    capture :func:`current_sink` in the dispatching thread and re-enter
    through this to carry the sink across the thread boundary.
    """
    if sink is None or not sink:
        yield
        return
    previous = getattr(_LOCAL, "sink", None)
    _LOCAL.sink = sink
    try:
        yield
    finally:
        _LOCAL.sink = previous
