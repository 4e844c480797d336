"""Fleet serving with generation-aware hot refit.

A :class:`~repro.replica.set.ReplicaSet` is the one fleet core: lifecycle,
the ``fit_generation`` double-buffer, a
:class:`~repro.replica.dispatch.Dispatcher` routing every request to the
least-loaded healthy member (EWMA in-flight depth + recent p95 drain
latency, session affinity for ``next_step``, round-robin while cold), the
fleet admission rule and the ``stats()`` roll-up.  In process it serves one
member — a planner with its own serving loop — and the
:class:`~repro.replica.refit.RefitCoordinator` makes retrains invisible to
callers: a standby member trains off-path, one atomic flip of the
double-buffer redirects new arrivals, and the old member drains dry so
in-flight requests finish on the generation that admitted them — serving
never pauses.

Fan-out across members is the multi-process fleet's
(:class:`~repro.distributed.remote.RemoteReplicaSet`): it subclasses the
set, supplies ``num_replicas`` worker-process members behind the same
member verbs, and is refitted by the same coordinator.

Responses are bit-identical to a plain serving loop at one generation
(the parity suite in ``tests/replica``), and the refit protocol is driven
by ``repro-irs serve-sim --refit-at T``.
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
