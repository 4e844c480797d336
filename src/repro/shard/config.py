"""What the sharded execution subsystem resolves for itself.

The knobs (``num_workers`` / ``REPRO_NUM_WORKERS``, ``shard_backend`` /
``REPRO_SHARD_BACKEND``, ``vocab_shards`` / ``REPRO_VOCAB_SHARDS``) are
rows of the declarative resolver table in :mod:`repro.config` — import
their resolvers from there.  The platform check (:func:`fork_available`)
lives here — it is an environment probe, not a knob, and tests monkeypatch
it on this module — so :func:`resolve_shard_backend` composes the
table-driven name resolution with the local fork check.
"""

from __future__ import annotations

import multiprocessing

from repro.config import resolve_shard_backend_name
from repro.utils.exceptions import ConfigurationError

__all__ = ["resolve_shard_backend", "fork_available"]


def fork_available() -> bool:
    """Whether the ``process`` backend's fork start method exists on this OS."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_shard_backend(value: "str | None" = None, num_workers: int = 1) -> str:
    """Resolve the backend: explicit > ``REPRO_SHARD_BACKEND`` > default.

    The default is ``thread`` whenever more than one worker is requested
    (sharding without parallelism is only useful as a parity reference) and
    ``serial`` otherwise.  A ``process`` request on a platform without the
    fork start method is a configuration error, not a silent fallback.
    """
    backend = resolve_shard_backend_name(value, num_workers=num_workers)
    if backend == "process" and not fork_available():
        raise ConfigurationError(
            "the 'process' shard backend needs the fork start method, which "
            "this platform does not provide; use shard_backend='thread'"
        )
    return backend
