"""Exception hierarchy for the repro package.

Keeping a small, explicit hierarchy lets callers distinguish configuration
mistakes (caller error) from data problems (corpus error) without matching on
message strings.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """Raised when a model, experiment or layer is configured inconsistently."""


class DataError(ReproError):
    """Raised when an interaction corpus or dataset file is malformed."""


class NotFittedError(ReproError):
    """Raised when a model is used for inference before being fitted."""


class GraphError(ReproError):
    """Raised for item-graph problems (e.g. no path between two items)."""


class ServingError(ReproError):
    """Raised when the asynchronous serving loop is misused (e.g. submitting
    to a closed loop)."""


class QueueFullError(ServingError):
    """Raised by the admission controller's ``reject`` policy when a
    request queue is at its depth bound, and (as :class:`DeadlineExceeded`)
    for a request whose deadline passed."""


class DeadlineExceeded(QueueFullError):
    """Raised for a request whose deadline passed before it was planned —
    at admission, before its drained batch plans, or in a worker.  A
    :class:`QueueFullError`, so every back-pressure handler still catches
    it."""


class StaleGenerationError(ReproError):
    """Raised when a generation-pinned planner (or a
    :meth:`~repro.core.beam.BeamSearchPlanner.plan_paths_batch` call in
    flight) observes its backbone's ``fit_generation`` change under it.  The
    replicated-serving protocol never retrains a replica's backbone in
    place — a refit swaps whole replicas — so this error marks a protocol
    violation, not a recoverable condition."""
