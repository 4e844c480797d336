"""Versioned serving artifacts: what a refit ships across the transport.

A remote refit must make every standby worker serve the *new* generation's
fitted state.  Two kinds of state exist (the PR 8 seam: both carry a
``(config_key, fit_generation)``-style identity, so both version the same
way):

* **model weights** — the planner backbone's flat
  :meth:`~repro.nn.layers.Module.state_dict`, packed as an ``.npz``
  archive in memory;
* **retrieval-generator state** — the fitted
  :class:`~repro.retrieval.base.CandidateGenerator` (its index arrays and
  configuration), packed with :mod:`pickle` and identified by its
  ``retrieval_key()``.

The :class:`ArtifactRegistry` keys artifacts by ``(name, generation)``
where ``generation`` is the fleet's monotonic serving generation —
the same counter the dispatcher flip bumps — so a rolling deploy can ask
"what exactly does generation N serve?" and get byte-addressed,
checksummed answers.  Workers verify the sha256 before installing and echo
it in the ACK, making a corrupt or torn transfer loud instead of silently
serving the wrong weights.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import threading

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = [
    "Artifact",
    "ArtifactRegistry",
    "pack_state_dict",
    "unpack_state_dict",
    "pack_generator",
    "unpack_generator",
    "artifacts_from_planner",
]

MODEL_WEIGHTS = "model_weights"
GENERATOR_STATE = "generator_state"


class Artifact:
    """One versioned blob: name + generation + identity + checksummed bytes."""

    __slots__ = ("name", "generation", "identity", "payload", "sha256", "nbytes")

    def __init__(self, name: str, generation: int, identity: str, payload: bytes) -> None:
        self.name = name
        self.generation = int(generation)
        self.identity = identity
        self.payload = payload
        self.sha256 = hashlib.sha256(payload).hexdigest()
        self.nbytes = len(payload)

    def meta(self) -> dict:
        """The JSON-safe header shipped ahead of the blob (and kept by the
        registry's history)."""
        return {
            "name": self.name,
            "generation": self.generation,
            "identity": self.identity,
            "sha256": self.sha256,
            "nbytes": self.nbytes,
        }


class ArtifactRegistry:
    """Thread-safe ``(name, generation) -> Artifact`` store.

    Keeps every published version (the blobs of tiny test models are
    cheap; a production registry would spill to disk) so a canary or a
    rollback can re-ship any generation that ever served.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._artifacts: "dict[tuple[str, int], Artifact]" = {}
        self._order: "list[tuple[str, int]]" = []

    def publish(self, artifact: Artifact) -> Artifact:
        key = (artifact.name, artifact.generation)
        with self._lock:
            if key in self._artifacts:
                raise ConfigurationError(
                    f"artifact {artifact.name!r} generation {artifact.generation} "
                    "is already published (artifacts are immutable once versioned)"
                )
            self._artifacts[key] = artifact
            self._order.append(key)
        return artifact

    def get(self, name: str, generation: int) -> Artifact:
        with self._lock:
            artifact = self._artifacts.get((name, int(generation)))
        if artifact is None:
            raise ConfigurationError(
                f"no artifact {name!r} published at generation {generation}"
            )
        return artifact

    def for_generation(self, generation: int) -> "list[Artifact]":
        """Every artifact published at ``generation``, in publish order."""
        with self._lock:
            return [
                self._artifacts[key]
                for key in self._order
                if key[1] == int(generation)
            ]

    def history(self) -> "list[dict]":
        """Publish-ordered metadata of everything ever versioned."""
        with self._lock:
            return [self._artifacts[key].meta() for key in self._order]

    def __len__(self) -> int:
        with self._lock:
            return len(self._artifacts)


# --------------------------------------------------------------------- #
# Packing
# --------------------------------------------------------------------- #
def pack_state_dict(state: "dict[str, np.ndarray]") -> bytes:
    """Pack a flat name -> array mapping as in-memory ``.npz`` bytes."""
    buffer = io.BytesIO()
    np.savez(buffer, **state)
    return buffer.getvalue()


def unpack_state_dict(payload: bytes) -> "dict[str, np.ndarray]":
    with np.load(io.BytesIO(payload)) as archive:
        return {name: archive[name] for name in archive.files}


def pack_generator(generator) -> bytes:
    """Pack a fitted candidate generator (index arrays + configuration)."""
    return pickle.dumps(generator, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_generator(payload: bytes):
    return pickle.loads(payload)


def artifacts_from_planner(planner, generation: int) -> "list[Artifact]":
    """Extract the shippable artifacts of one fitted planner.

    Always the backbone weights; additionally the fitted candidate
    generator when the planner runs two-stage retrieval.  Planners whose
    backbone exposes no ``module`` (non-neural test stubs) ship nothing —
    the remote refit then relies on the deterministic factory alone.
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
