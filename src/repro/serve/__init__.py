"""Asynchronous serving subsystem: request queues, micro-batching, latency.

:class:`~repro.serve.loop.ServingLoop` turns the synchronous planning entry
points into a futures-based front-end: a step a resident plan answers is
served on the caller's thread, everything else enters one bounded queue, an
:class:`~repro.serve.admission.AdmissionController` applies back-pressure
(reject or block at the depth bound), and the drain thread answers
everything pending as one fused micro-batch through
:meth:`~repro.core.beam.BeamSearchPlanner.plan_for_requests` — responses
bit-identical to sequential serving (``tests/serve/test_serving_parity.py``),
driven by the traffic drivers in :mod:`repro.serve.driver`.
"""

from repro.serve.admission import AdmissionController
from repro.serve.api import NextStepRequest, PlanRequest, Response
from repro.serve.driver import (
    latency_percentiles,
    poisson_arrival_offsets,
    replay_lockstep,
    run_open_loop,
)
from repro.serve.loop import ServingLoop
from repro.serve.queue import RequestQueue
from repro.serve.request import ServeRequest

__all__ = [
    "AdmissionController",
    "NextStepRequest",
    "PlanRequest",
    "RequestQueue",
    "Response",
    "ServeRequest",
    "ServingLoop",
    "latency_percentiles",
    "poisson_arrival_offsets",
    "replay_lockstep",
    "run_open_loop",
]
