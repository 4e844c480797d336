"""Replicated serving with generation-aware hot refit.

A :class:`~repro.replica.set.ReplicaSet` puts N independently fitted
backbone replicas behind the admission layer — each replica owns its
planner (with its own plan caches) and its own serving loop — and a
:class:`~repro.replica.dispatch.Dispatcher` routes every request to the
least-loaded healthy replica (EWMA in-flight depth + recent p95 drain
latency, session affinity for ``next_step``, round-robin while cold)
instead of queueing behind a busy one.  The
:class:`~repro.replica.refit.RefitCoordinator` makes retrains invisible to
callers: a standby replica set trains off-path, one atomic flip of the
``fit_generation`` double-buffer redirects new arrivals, and the old
replicas drain dry so in-flight requests finish on the generation that
admitted them — serving never pauses.

``ReplicaSet`` is the one fleet core and ``RefitCoordinator`` the one refit
skeleton: the multi-process fleet
(:class:`~repro.distributed.remote.RemoteReplicaSet`) subclasses the set,
supplies worker-process members behind the same member verbs, and is
refitted by the same coordinator.

Responses are bit-identical to single-replica serving whenever all
replicas share one generation (the parity suite in ``tests/replica``), and
the whole protocol is measured by the ``replicated_serving`` bench section
and ``repro-irs serve-sim --replicas N --refit-at T``.
"""

from repro.replica.dispatch import Dispatcher
from repro.replica.driver import run_replicated_open_loop
from repro.replica.refit import RefitCoordinator, RefitHandle, schedule_refit
from repro.replica.replica import Replica
from repro.replica.set import ReplicaSet

__all__ = [
    "Dispatcher",
    "RefitCoordinator",
    "RefitHandle",
    "Replica",
    "ReplicaSet",
    "run_replicated_open_loop",
    "schedule_refit",
]
