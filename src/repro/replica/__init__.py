"""What the fleet dispatches by, and the hot-refit harness.

* :class:`~repro.replica.dispatch.Dispatcher` routes every request of the
  process fleet (:class:`~repro.distributed.remote.RemoteReplicaSet`):
  session affinity for ``next_step``, and otherwise the healthy worker with
  the fewest requests on the wire, as the parent's own pending tables count
  them (ties to the one picked least so far).
* :func:`~repro.replica.driver.run_replicated_open_loop` drives open-loop
  traffic through either front-end — a
  :class:`~repro.serve.loop.ServingLoop` or the process fleet — across an
  optional hot refit (``repro-irs serve-sim --refit-at T``): the next
  generation trains off-path (in every worker, on the fleet), one flip per
  loop redirects new work, and serving never pauses.
"""

from repro.replica.dispatch import Dispatcher
from repro.replica.driver import run_replicated_open_loop

__all__ = [
    "Dispatcher",
    "run_replicated_open_loop",
]
