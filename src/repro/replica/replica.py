"""One serving replica: a pinned planner, its loop, and its load signals.

A :class:`Replica` owns everything one backbone copy needs to serve
independently: the generation-pinned planner (with its own plan caches),
a dedicated :class:`~repro.serve.loop.ServingLoop` (its own queue, drain
thread and per-replica :class:`~repro.serve.admission.AdmissionController`
scope), and the load accounting the dispatcher scores replicas by:

* **in-flight count** — requests dispatched here and not yet answered
  (queued *or* inside a drain's planning call), the primary load signal;
* **EWMA of in-flight depth** — sampled at every dispatch, so a replica
  that keeps a deep backlog scores worse than one that drains promptly;
* **recent p95 latency** — over a bounded window of answered-request
  latencies (enqueue → drain completion), the tail-latency half of the
  dispatcher's score.

Nothing is shared between replicas: no cache, no lock, no invalidation
traffic — the refit protocol swaps whole replicas instead of mutating one.

The fleet core (:class:`~repro.replica.set.ReplicaSet`) drives a member
through five verbs — ``start``, ``accept``, ``loop_stats``,
``begin_retire`` and ``retire`` — beside the load accounting above
(``on_dispatch`` / ``on_dispatch_failed`` / ``pending_count`` / ``stats``);
:class:`~repro.distributed.remote.RemoteReplica` implements the same
surface over the process boundary.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.obs.registry import MetricGroup, get_registry
from repro.serve.request import ServeRequest

__all__ = [
    "Replica",
    "pin_serving_generation",
    "EWMA_ALPHA",
    "LATENCY_WINDOW",
    "MIN_WARM_SAMPLES",
]

#: Weight of the newest in-flight depth sample in the EWMA.
EWMA_ALPHA = 0.2
#: Answered-request latencies kept for the recent-p95 estimate.
LATENCY_WINDOW = 64
#: Latency samples a replica needs before the dispatcher trusts its score
#: (below this the replica is "cold" and the dispatcher round-robins).
MIN_WARM_SAMPLES = 8
#: How many queued requests one second of recent p95 tail latency is worth
#: in the dispatch score — couples the two load signals into one number.
LATENCY_WEIGHT = 4.0


def pin_serving_generation(planner, generation: int) -> None:
    """Pin ``planner`` to the fleet ``generation`` it is about to serve."""
    pin = getattr(planner, "pin_generation", None)
    if pin is not None:
        pin(serving_generation=generation)
    else:
        planner.serving_generation = generation


class Replica:
    """One backbone replica: pinned planner + serving loop + load tracking."""

    def __init__(self, index: int, planner, loop, generation: int) -> None:
        self.index = index
        self.planner = planner
        self.loop = loop
        #: The replica set's generation this replica serves (monotonic across
        #: refits; backbone ``fit_generation`` counters restart per model
        #: object so they cannot tell generations apart across replicas).
        self.generation = generation
        self._lock = threading.Lock()
        self._healthy = True
        self._inflight = 0
        self._dispatched = 0
        self._completed = 0
        self._ewma_depth = 0.0
        self._latencies_ms: "deque[float]" = deque(maxlen=LATENCY_WINDOW)
        # The replica's own lock stays authoritative for the read-modify-
        # write load math; the resulting signals mirror into registry gauges
        # so dispatcher load is visible in `repro-irs metrics` exports.
        registry = get_registry()
        self._metrics = MetricGroup(
            registry,
            registry.scope("replica.load"),
            gauges=("inflight", "dispatched", "completed", "ewma_depth"),
        )

    # ------------------------------------------------------------------ #
    # Member verbs (what the fleet core asks of any member)
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the loop's drain threads (idempotent)."""
        self.loop.start()

    def accept(self, request: ServeRequest) -> None:
        """Hand one dispatched request to this replica's loop.

        Raises whatever the loop's admission raises (``QueueFullError``
        back-pressure, ``ServingError`` once the loop closed) — nothing was
        admitted in that case."""
        self.loop.enqueue(request)
        request.future.add_done_callback(lambda _future: self.on_complete(request))

    def pending_count(self) -> int:
        """Requests dispatched here and not yet answered."""
        with self._lock:
            return self._inflight

    def loop_stats(self) -> dict:
        return self.loop.stats()

    def begin_retire(self) -> None:
        """Leave dispatch; everything already admitted still drains."""
        self.mark_unhealthy()

    def retire(self, deadline: float) -> "list[ServeRequest]":
        """Drain dry and join the drain threads.  Returns the requests this
        member could not answer — none: a loop's close resolves every
        accepted future, however long that takes (``deadline`` only bounds
        members that can fail to drain)."""
        self.loop.close()
        return []

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    @property
    def healthy(self) -> bool:
        with self._lock:
            return self._healthy

    def mark_unhealthy(self) -> None:
        """Take this replica out of dispatch (it keeps draining in-flight)."""
        with self._lock:
            self._healthy = False

    def mark_healthy(self) -> None:
        with self._lock:
            self._healthy = True

    # ------------------------------------------------------------------ #
    # Load accounting (driven by the replica set around every dispatch)
    # ------------------------------------------------------------------ #
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

    def on_dispatch_failed(self) -> None:
        """The enqueue raised (queue full / replica retired): undo the
        in-flight count — the request never landed here."""
        with self._lock:
            self._inflight = max(self._inflight - 1, 0)
            self._dispatched -= 1
            self._metrics.record(
                set_={"inflight": self._inflight, "dispatched": self._dispatched}
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

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def cold(self) -> bool:
        """True until enough latency samples exist to trust :meth:`score`."""
        with self._lock:
            return len(self._latencies_ms) < MIN_WARM_SAMPLES

    def recent_p95_ms(self) -> float:
        """p95 of the bounded recent-latency window (0 when empty)."""
        with self._lock:
            if not self._latencies_ms:
                return 0.0
            ordered = sorted(self._latencies_ms)
            return ordered[min(int(0.95 * len(ordered)), len(ordered) - 1)]

    def score(self) -> float:
        """Dispatch score — lower is better.

        ``ewma_depth + LATENCY_WEIGHT * recent_p95_seconds``: the smoothed
        backlog this replica carries, plus its recent tail latency expressed
        in queued-request equivalents, so a replica that is shallow but slow
        loses to one that is slightly deeper but drains fast.
        """
        p95_s = self.recent_p95_ms() / 1000.0
        with self._lock:
            return self._ewma_depth + LATENCY_WEIGHT * p95_s

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """One snapshot of this replica's load and serving counters."""
        with self._lock:
            snapshot = {
                "index": self.index,
                "generation": self.generation,
                "healthy": self._healthy,
                "inflight": self._inflight,
                "dispatched": self._dispatched,
                "completed": self._completed,
                "ewma_depth": round(self._ewma_depth, 3),
                "latency_samples": len(self._latencies_ms),
            }
        snapshot["recent_p95_ms"] = round(self.recent_p95_ms(), 3)
        snapshot["queued"] = self.loop.current_depth()
        return snapshot
