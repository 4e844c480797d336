"""One worker's load signals: what its heartbeats report to the fleet.

A :class:`Replica` sits next to the :class:`~repro.serve.loop.ServingLoop`
of one worker process (:mod:`repro.distributed.worker`) and keeps the load
accounting the parent's dispatcher scores workers by:

* **in-flight count** — requests handed to the loop and not yet answered
  (queued *or* inside a drain's planning call), the primary load signal;
* **EWMA of in-flight depth** — sampled at every dispatch, so a worker
  that keeps a deep backlog scores worse than one that drains promptly;
* **recent p95 latency** — over a bounded window of answered-request
  latencies (enqueue → drain completion), the tail-latency half of the
  dispatcher's score.

The worker ships :meth:`Replica.stats` in every HEARTBEAT frame; the parent
(:class:`~repro.distributed.remote.RemoteReplica`) turns the latest one
into ``cold()`` / ``score()`` with :data:`MIN_WARM_SAMPLES` and
:data:`LATENCY_WEIGHT`.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.registry import MetricGroup, get_registry
from repro.serve.request import ServeRequest

__all__ = [
    "Replica",
    "EWMA_ALPHA",
    "LATENCY_WINDOW",
    "MIN_WARM_SAMPLES",
]

#: Weight of the newest in-flight depth sample in the EWMA.
EWMA_ALPHA = 0.2
#: Answered-request latencies kept for the recent-p95 estimate.
LATENCY_WINDOW = 64
#: Latency samples a worker needs before the dispatcher trusts its score
#: (below this the worker is "cold" and the dispatcher round-robins).
MIN_WARM_SAMPLES = 8
#: How many queued requests one second of recent p95 tail latency is worth
#: in the dispatch score — couples the two load signals into one number.
LATENCY_WEIGHT = 4.0


class Replica:
    """One worker's load accounting over its serving loop."""

    def __init__(self, index: int, loop, generation: int) -> None:
        self.index = index
        self.loop = loop
        #: The fleet generation this worker serves.
        self.generation = generation
        self._lock = threading.Lock()
        self._inflight = 0
        self._dispatched = 0
        self._completed = 0
        self._ewma_depth = 0.0
        self._latencies_ms: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        # The replica's own lock stays authoritative for the read-modify-
        # write load math; the resulting signals mirror into registry gauges
        # so worker load is visible in `repro-irs metrics` exports.
        registry = get_registry()
        self._metrics = MetricGroup(
            registry,
            registry.scope("replica.load"),
            gauges=("inflight", "dispatched", "completed", "ewma_depth"),
        )

    def on_dispatch(self) -> None:
        """A request is about to be enqueued here: count it in-flight and
        fold the new depth into the EWMA."""
        with self._lock:
            self._inflight += 1
            self._dispatched += 1
            self._ewma_depth = (
                EWMA_ALPHA * self._inflight + (1.0 - EWMA_ALPHA) * self._ewma_depth
            )
            self._metrics.record(
                set_={
                    "inflight": self._inflight,
                    "dispatched": self._dispatched,
                    "ewma_depth": round(self._ewma_depth, 6),
                }
            )

    def on_complete(self, request: ServeRequest) -> None:
        """A dispatched request's future resolved (answer or error)."""
        with self._lock:
            self._inflight = max(self._inflight - 1, 0)
            self._completed += 1
            if request.completed_at is not None and request.enqueued_at:
                self._latencies_ms.append(
                    1000.0 * (request.completed_at - request.enqueued_at)
                )
            self._metrics.record(
                set_={"inflight": self._inflight, "completed": self._completed}
            )

    def stats(self) -> dict:
        """One snapshot of the load signals and serving counters."""
        with self._lock:
            ordered = sorted(self._latencies_ms)
            snapshot = {
                "index": self.index,
                "generation": self.generation,
                "inflight": self._inflight,
                "dispatched": self._dispatched,
                "completed": self._completed,
                "ewma_depth": round(self._ewma_depth, 3),
                "latency_samples": len(ordered),
            }
        p95 = ordered[min(int(0.95 * len(ordered)), len(ordered) - 1)] if ordered else 0.0
        snapshot["recent_p95_ms"] = round(p95, 3)
        snapshot["queued"] = self.loop.current_depth()
        return snapshot
