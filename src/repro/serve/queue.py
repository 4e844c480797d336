"""The serving loop's bounded request queue.

A :class:`RequestQueue` holds the
:class:`~repro.serve.request.ServeRequest` envelopes a
:class:`~repro.serve.loop.ServingLoop` has to plan, FIFO.  The queue owns
its condition variable, so producers (callers of ``ServingLoop.enqueue``)
and the loop's drain thread synchronise without the loop's own lock.

Draining semantics (:meth:`RequestQueue.collect`): the drain thread sleeps
until a request arrives, then holds the queue open for the admission
controller's ``drain_deadline`` (anchored at the FIRST enqueue, so the
window bounds worst-case queueing latency instead of sliding), then pops
everything as one micro-batch.  A queue at its depth bound drains
immediately — releasing back-pressure beats finishing the batching window.

The depth/batch counters live in the process-wide metrics registry
(:mod:`repro.obs.registry`) under the queue's ``metrics_scope``; the
condition variable still serialises the FIFO itself, while each counter
update is one registry-lock acquisition so :meth:`stats` — and the owning
loop's whole-tree snapshot — read atomically.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.obs.registry import MetricGroup, get_registry
from repro.serve.admission import AdmissionController
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ServingError

__all__ = ["RequestQueue", "rollup_queue_stats"]


class RequestQueue:
    """A bounded FIFO of serve requests."""

    def __init__(
        self, admission: AdmissionController, metrics_scope: "str | None" = None
    ) -> None:
        self.admission = admission
        self._cond = threading.Condition()
        self._items: "deque[ServeRequest]" = deque()
        self._closed = False
        registry = get_registry()
        self.metrics_scope = (
            metrics_scope if metrics_scope is not None else registry.scope("serve.queue")
        )
        self._metrics = MetricGroup(
            registry,
            self.metrics_scope,
            counters=(
                "enqueued",
                "depth_sum",
                "depth_samples",
                "micro_batches",
                "micro_batch_requests",
                "empty_drains",
            ),
            gauges=("depth", "depth_max", "micro_batch_max"),
        )

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    # ------------------------------------------------------------------ #
    def put(self, request: ServeRequest) -> None:
        """Admit one request, applying the back-pressure policy when full."""
        with self._cond:
            blocked = False
            while True:
                if self._closed:
                    raise ServingError(
                        "the request queue is closed; "
                        "the serving loop no longer accepts requests"
                    )
                if len(self._items) < self.admission.max_queue_depth:
                    break
                # Raises QueueFullError under the reject policy; under the
                # block policy we sleep until a drain frees space (or the
                # queue closes), counting this request as blocked ONCE.
                self.admission.on_full(len(self._items))
                if not blocked:
                    self.admission.on_blocked()
                    blocked = True
                self._cond.wait()
            # Admission is the queue-wait epoch: the drain-deadline window
            # and the queue-wait stats start here, not at envelope creation
            # (a back-pressure block is admission wait, not queue wait).
            request.enqueued_at = time.perf_counter()
            self._items.append(request)
            self.admission.on_admitted()
            depth = len(self._items)
            self._metrics.record(
                add={"enqueued": 1, "depth_sum": depth, "depth_samples": 1},
                max_={"depth_max": depth},
                set_={"depth": depth},
            )
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    def collect(self) -> "list[ServeRequest] | None":
        """Block for the next micro-batch; ``None`` once closed and empty."""
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if not self._items:
                return None  # closed and drained dry: the drain thread exits
            deadline = self._items[0].enqueued_at + self.admission.drain_deadline
            while (
                not self._closed
                and len(self._items) < self.admission.max_queue_depth
            ):
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
                if not self._items:  # pragma: no cover - only collect() pops
                    break
            return self._pop_batch_locked()

    def pop_all(self) -> "list[ServeRequest]":
        """Pop whatever is queued right now without blocking (may be empty).

        The empty-drain entry point: callers draining opportunistically
        (tests, shutdown sweeps) get ``[]`` instead of a wait, and an empty
        batch is a no-op downstream (``plan_for_requests([]) == []``).
        """
        with self._cond:
            return self._pop_batch_locked()

    def _pop_batch_locked(self) -> "list[ServeRequest]":
        batch = list(self._items)
        self._items.clear()
        if batch:
            self._metrics.record(
                add={"micro_batches": 1, "micro_batch_requests": len(batch)},
                max_={"micro_batch_max": len(batch)},
                set_={"depth": 0},
            )
        else:
            self._metrics.record(add={"empty_drains": 1}, set_={"depth": 0})
        self._cond.notify_all()  # wake producers blocked on back-pressure
        return batch

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop admissions; pending requests stay drainable."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """One atomic registry snapshot of this queue's counters."""
        return self._shape_stats(self._metrics.values())

    @staticmethod
    def _shape_stats(values: dict) -> dict:
        """Reshape a flat counter mapping into the public stats dict.

        Shared with :meth:`ServingLoop.stats`, which reads the queue's
        counters out of ONE whole-tree registry snapshot and shapes them
        through here.
        """
        return {
            "depth": values["depth"],
            "enqueued": values["enqueued"],
            "depth_max": values["depth_max"],
            "depth_sum": values["depth_sum"],
            "depth_samples": values["depth_samples"],
            "depth_mean": (
                round(values["depth_sum"] / values["depth_samples"], 3)
                if values["depth_samples"]
                else 0.0
            ),
            "micro_batches": values["micro_batches"],
            "micro_batch_requests": values["micro_batch_requests"],
            "micro_batch_max": values["micro_batch_max"],
            "micro_batch_mean": (
                round(values["micro_batch_requests"] / values["micro_batches"], 3)
                if values["micro_batches"]
                else 0.0
            ),
            "empty_drains": values["empty_drains"],
        }


def rollup_queue_stats(per_queue: "list[dict]") -> dict:
    """The ``queue_depth`` / ``micro_batches`` sections of a ``stats()``
    report, summed over :meth:`RequestQueue.stats` rows — one loop's queue
    or every queue of a whole fleet."""
    depth_samples = sum(q["depth_samples"] for q in per_queue)
    batches = sum(q["micro_batches"] for q in per_queue)
    batch_requests = sum(q["micro_batch_requests"] for q in per_queue)
    return {
        "queue_depth": {
            "max": max((q["depth_max"] for q in per_queue), default=0),
            "mean": (
                round(sum(q["depth_sum"] for q in per_queue) / depth_samples, 3)
                if depth_samples
                else 0.0
            ),
        },
        "micro_batches": {
            "count": batches,
            "mean_size": round(batch_requests / batches, 3) if batches else 0.0,
            "max_size": max((q["micro_batch_max"] for q in per_queue), default=0),
        },
    }
