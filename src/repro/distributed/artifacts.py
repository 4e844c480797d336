"""Versioned serving artifacts: how a fleet checks that its workers agree.

A fleet refit builds generation N+1 in every worker, each calling the
factories it inherited at fork, so before anything flips the parent must
know they all built the *same* fitted state.  Two kinds of state exist
(both carry a ``(config_key, fit_generation)``-style identity, so both
version the same way):

* **model weights** — the planner backbone's flat
  :meth:`~repro.nn.layers.Module.state_dict`, packed as an ``.npz``
  archive in memory;
* **retrieval-generator state** — the fitted
  :class:`~repro.retrieval.base.CandidateGenerator` (its index arrays and
  configuration), packed with :mod:`pickle` and identified by its
  ``retrieval_key()``.

An :class:`Artifact` is one of these packed and checksummed under its
``(name, generation)``, where ``generation`` is the fleet's monotonic
serving generation.  Nothing ships: each worker acks its refit's
``prepare`` with the :meth:`Artifact.meta` of what it built, and the parent
commits only when every sha256 agrees — a non-deterministic factory is
refused loudly instead of serving different weights per worker.  The
metas land in ``stats()["transport"]["artifacts"]``, so "what exactly does
generation N serve?" has a byte-addressed answer.
"""

from __future__ import annotations

import hashlib
import io
import pickle

import numpy as np

__all__ = [
    "Artifact",
    "pack_state_dict",
    "pack_generator",
    "artifacts_from_planner",
]

MODEL_WEIGHTS = "model_weights"
GENERATOR_STATE = "generator_state"


class Artifact:
    """One versioned piece of fitted state: name + generation + identity +
    the checksum and size of its packed bytes (the bytes are not kept)."""

    __slots__ = ("name", "generation", "identity", "sha256", "nbytes")

    def __init__(self, name: str, generation: int, identity: str, payload: bytes) -> None:
        self.name = name
        self.generation = int(generation)
        self.identity = identity
        self.sha256 = hashlib.sha256(payload).hexdigest()
        self.nbytes = len(payload)

    def meta(self) -> dict:
        """The JSON-safe header a worker acks and the fleet's stats keep."""
        return {
            "name": self.name,
            "generation": self.generation,
            "identity": self.identity,
            "sha256": self.sha256,
            "nbytes": self.nbytes,
        }


# --------------------------------------------------------------------- #
# Packing
# --------------------------------------------------------------------- #
def pack_state_dict(state: "dict[str, np.ndarray]") -> bytes:
    """Pack a flat name -> array mapping as in-memory ``.npz`` bytes."""
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    return buffer.getvalue()


def pack_generator(generator) -> bytes:
    """Pack a fitted candidate generator (index arrays + configuration)."""
    return pickle.dumps(generator, protocol=pickle.HIGHEST_PROTOCOL)


def artifacts_from_planner(planner, generation: int) -> "list[Artifact]":
    """Extract the versioned artifacts of one fitted planner.

    Always the backbone weights; additionally the fitted candidate
    generator when the planner runs two-stage retrieval.  Planners whose
    backbone exposes no ``module`` (non-neural test stubs) have none — a
    fleet refit then has nothing to compare across its workers.
    """
    artifacts: "list[Artifact]" = []
    module = getattr(getattr(planner, "backbone", None), "module", None)
    if module is not None:
        fit_generation = getattr(planner.backbone, "fit_generation", 0)
        artifacts.append(
            Artifact(
                MODEL_WEIGHTS,
                generation,
                identity=repr((getattr(planner, "name", "planner"), fit_generation)),
                payload=pack_state_dict(module.state_dict()),
            )
        )
    generator = getattr(planner, "candidate_generator", None)
    if generator is not None:
        artifacts.append(
            Artifact(
                GENERATOR_STATE,
                generation,
                identity=repr(generator.retrieval_key()),
                payload=pack_generator(generator),
            )
        )
    return artifacts
