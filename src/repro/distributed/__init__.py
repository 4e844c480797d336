"""Multi-process serving: forked replica workers behind a binary wire protocol.

The package is the serving fleet: N worker processes behind one parent
that dispatches, admits, refits and reports for all of them:

* :mod:`repro.distributed.wire` — length-prefixed binary frames: request
  and response batches struct-packed (the hot path), a JSON control plane,
  and empty heartbeat frames (liveness only).
* :mod:`repro.distributed.worker` — the forked worker process: a full
  :class:`~repro.serve.loop.ServingLoop` behind an ``AF_UNIX`` socketpair,
  refitted in place through that loop's own ``refit``.
* :mod:`repro.distributed.remote` — the parent side:
  :class:`RemoteReplicaSet` (lifecycle, the hot refit's prepare / commit
  exchange, spawn/HELLO, the per-worker reader, pending tables, the
  failure detector and zero-drop re-dispatch, tenant placement, the
  ``stats()`` roll-up) and :class:`RemoteReplica`, one worker's handle.
* :mod:`repro.distributed.artifacts` — the ``(name, generation)``-versioned
  sha256 metas of a fitted planner, which every worker of a refit must
  agree on before it commits.

The transport knobs (``REPRO_TRANSPORT`` / ``REPRO_HEARTBEAT_INTERVAL`` /
``REPRO_HEARTBEAT_MISSES`` / ``REPRO_PROBATION_BEATS``) are rows of
:mod:`repro.config`.
"""

from repro.distributed.artifacts import Artifact, artifacts_from_planner
from repro.distributed.remote import RemoteReplica, RemoteReplicaSet
from repro.distributed.worker import CAN_FORK, ReplicaWorker, spawn_worker

__all__ = [
    "Artifact",
    "CAN_FORK",
    "RemoteReplica",
    "RemoteReplicaSet",
    "ReplicaWorker",
    "artifacts_from_planner",
    "spawn_worker",
]
