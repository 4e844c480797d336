"""What the fleet dispatches by, and the hot-refit harness.

* :class:`~repro.replica.dispatch.Dispatcher` routes every request of the
  process fleet (:class:`~repro.distributed.remote.RemoteReplicaSet`) to
  the least-loaded healthy worker: EWMA in-flight depth + recent p95 drain
  latency, session affinity for ``next_step``, round-robin while cold.
* :class:`~repro.replica.replica.Replica` keeps those load signals inside
  each worker process, for its heartbeats.
* :func:`~repro.replica.driver.run_replicated_open_loop` drives open-loop
  traffic through either front-end — a
  :class:`~repro.serve.loop.ServingLoop` or the process fleet — across an
  optional hot refit (``repro-irs serve-sim --refit-at T``): the next
  generation trains off-path (in every worker, on the fleet), one flip per
  loop redirects new work, and serving never pauses.
"""

from repro.replica.dispatch import Dispatcher
from repro.replica.driver import run_replicated_open_loop
from repro.replica.replica import Replica

__all__ = [
    "Dispatcher",
    "Replica",
    "run_replicated_open_loop",
]
