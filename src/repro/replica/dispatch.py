"""Tail-latency-aware request routing across serving replicas.

The :class:`Dispatcher` answers one question per request: *which healthy
replica takes it* — routing **around** a busy replica instead of queueing
behind it.  A replica is anything with an ``index``, a ``healthy`` flag and
``cold()`` / ``score()`` (in practice a worker's
:class:`~repro.distributed.remote.RemoteReplica`, scored from its
heartbeats).  Three rules, in order:

1. **Session affinity** — a ``next_step`` request whose serving context
   (``(history, objective, user)`` routing key) was seen before goes back
   to the replica that owns that context's evolving plan.  This is what
   keeps replicated responses bit-identical to single-replica serving: a
   session's per-context plan cache lives on exactly one replica, so the
   request sequence a context observes is the sequential one.  Stateless
   ``plan_paths`` requests carry no session and are always load-balanced.
2. **Least-loaded** — new sessions and stateless requests go to the
   replica with the lowest score (EWMA of in-flight depth plus recent p95
   drain latency, see
   :meth:`~repro.distributed.remote.RemoteReplica.score`).
3. **Round-robin when cold** — until every healthy replica has enough
   latency samples to score meaningfully, assignment rotates, spreading
   the warm-up load evenly instead of dog-piling replica 0.

A generation flip (:meth:`RemoteReplicaSet.refit
<repro.distributed.remote.RemoteReplicaSet.refit>`) calls
:meth:`reset` with the new replica list: the affinity table clears, so
every session replans once on the new generation — exactly the semantics a
model swap requires.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from repro.obs.registry import MetricGroup, get_registry
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ServingError

__all__ = ["Dispatcher", "MAX_PINNED_SESSIONS"]

#: Bound of the session-affinity LRU.  A long-lived set serving an
#: unbounded context stream must not grow a table forever; the oldest
#: (least recently served) session unpins first.  An unpinned session that
#: returns is simply re-placed — same caveat class as the serving step
#: cache: re-placement may replan mid-session on another replica, and the
#: default bound never evicts in the repo's workloads.
MAX_PINNED_SESSIONS = 4096


class Dispatcher:
    """Route each serve request to the least-loaded healthy replica."""

    def __init__(
        self,
        replicas: "Sequence",
        max_pinned_sessions: int = MAX_PINNED_SESSIONS,
    ) -> None:
        self.max_pinned_sessions = max_pinned_sessions
        self._lock = threading.Lock()
        self._replicas: "list" = list(replicas)
        self._affinity: "OrderedDict[tuple, object]" = OrderedDict()
        self._rr_position = 0
        # Routing-decision counters: registry-backed so `repro-irs metrics`
        # and stats() read the same atomic snapshot.
        registry = get_registry()
        self._metrics = MetricGroup(
            registry,
            registry.scope("replica.dispatch"),
            counters=(
                "picks_affinity",
                "picks_least_loaded",
                "picks_round_robin",
                "sessions_evicted",
            ),
            gauges=("sessions_pinned",),
        )
        self._picks_affinity = self._metrics.counter("picks_affinity")

    # ------------------------------------------------------------------ #
    def reset(self, replicas: "Sequence") -> None:
        """Swap the replica list (the refit flip): affinity clears so every
        session replans once on the new generation."""
        with self._lock:
            self._replicas = list(replicas)
            self._affinity.clear()
            self._metrics.record(set_={"sessions_pinned": 0})

    def forget(self, replica) -> None:
        """Drop a replica's affinity entries (it stopped accepting work)."""
        with self._lock:
            stale = [key for key, owner in self._affinity.items() if owner is replica]
            for key in stale:
                del self._affinity[key]
            self._metrics.record(set_={"sessions_pinned": len(self._affinity)})

    # ------------------------------------------------------------------ #
    def pick(self, request: ServeRequest, key: "tuple | None" = None) -> object:
        """Choose the replica for one request (raises
        :class:`~repro.utils.exceptions.ServingError` with no healthy
        replica to route to).  ``key`` is a ``next_step``'s routing key when
        the caller has built it already; a stateless request has none."""
        if request.kind != "next_step":
            key = None
        elif key is None:
            key = request.routing_key()
        with self._lock:
            owner = None
            if key is not None and key in self._affinity:
                owner = self._affinity[key]
                if owner.healthy and owner in self._replicas:
                    self._affinity.move_to_end(key)
                    self._picks_affinity.inc()
                    return owner
            healthy = [replica for replica in self._replicas if replica.healthy]
            if not healthy:
                raise ServingError(
                    "no healthy replica available to dispatch to "
                    f"({len(self._replicas)} registered)"
                )
            if owner is not None:
                # The owning replica went unhealthy (failure detector) or
                # retired under this session: evict the pin NOW so the
                # session re-homes below — and counts as an eviction even
                # if the owner later recovers, because the re-homed replica
                # replans the context and owns it from here on.
                del self._affinity[key]
                self._metrics.record(
                    add={"sessions_evicted": 1},
                    set_={"sessions_pinned": len(self._affinity)},
                )
            if any(r.cold() for r in healthy):
                choice = healthy[self._rr_position % len(healthy)]
                self._rr_position += 1
                self._metrics.record(add={"picks_round_robin": 1})
            else:
                choice = min(healthy, key=lambda r: (r.score(), r.index))
                self._metrics.record(add={"picks_least_loaded": 1})
            if key is not None:
                self._affinity[key] = choice
                self._affinity.move_to_end(key)
                evicted = 0
                while len(self._affinity) > self.max_pinned_sessions:
                    self._affinity.popitem(last=False)
                    evicted += 1
                self._metrics.record(
                    add={"sessions_evicted": evicted} if evicted else None,
                    set_={"sessions_pinned": len(self._affinity)},
                )
            return choice

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        with self._lock:
            counts = self._metrics.values()
            return {
                "replicas": len(self._replicas),
                "sessions_pinned": len(self._affinity),
                "sessions_evicted": counts["sessions_evicted"],
                "picks": {
                    "affinity": counts["picks_affinity"],
                    "least_loaded": counts["picks_least_loaded"],
                    "round_robin": counts["picks_round_robin"],
                },
            }
