"""Synthetic serving traffic over the asynchronous loop.

Two drivers, two purposes:

* :func:`replay_lockstep` — the deterministic parity workload: the stepwise
  lockstep of :func:`repro.evaluation.protocol.rollout_next_step` replayed
  through the serving loop (every live context's request in flight
  concurrently each round, so the queue genuinely micro-batches).  Its
  returned paths must be bit-identical to the sequential rollout on the
  same planner — the acceptance contract of the async-serving rung, and
  what the parity suite in ``tests/serve`` asserts.

* :func:`run_open_loop` — the latency workload: open-loop Poisson arrivals
  (seeded, so the offered trace is reproducible) over the evaluation
  contexts, each arrival one ``next_step`` request against that context's
  evolving session.  Open loop means arrivals never wait for responses —
  the driver measures latency from the *scheduled* arrival instant, so
  queueing delay under overload is charged to the system, not hidden by
  coordinated omission.  Produces the throughput / p50-p95-p99 latency /
  queue-depth report behind ``repro-irs serve-sim``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.config import resolve_arrival_rate, resolve_serve_duration
from repro.serve.api import NextStepRequest
from repro.serve.loop import ServingLoop
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ConfigurationError, QueueFullError
from repro.utils.rng import as_rng

__all__ = [
    "replay_lockstep",
    "poisson_arrival_offsets",
    "latency_percentiles",
    "run_open_loop",
]

Context = "tuple[Sequence[int], int, int | None]"


def replay_lockstep(
    loop: ServingLoop, contexts: "Sequence[Context]", max_length: int
) -> "list[list[int]]":
    """Serve the lockstep stepwise workload through the loop (parity driver).

    Mirrors :func:`~repro.evaluation.protocol.rollout_next_step` exactly —
    same round structure, same index order — except that every round's
    requests are submitted before any response is awaited, so they queue and
    micro-batch.  The returned paths are bit-identical to the sequential
    rollout on the same planner.
    """
    if max_length <= 0:
        raise ConfigurationError(f"max_length must be positive, got {max_length}")
    paths: "list[list[int]]" = [[] for _ in contexts]
    live = set(range(len(contexts)))
    for _ in range(max_length):
        if not live:
            break
        futures = {
            index: loop.serve(
                NextStepRequest(
                    history=tuple(contexts[index][0]),
                    objective=int(contexts[index][1]),
                    path_so_far=tuple(paths[index]),
                    user_index=contexts[index][2],
                )
            )
            for index in sorted(live)
        }
        for index in sorted(live):
            item = futures[index].result().answer
            if item is None:
                live.discard(index)
                continue
            paths[index].append(int(item))
            if int(item) == int(contexts[index][1]):
                live.discard(index)
    return paths


def poisson_arrival_offsets(
    arrival_rate: float,
    rng,
    num_requests: "int | None" = None,
    duration: "float | None" = None,
) -> np.ndarray:
    """Cumulative Poisson arrival offsets (seconds from traffic start).

    Exactly one of ``num_requests`` (fixed-size trace, the deterministic
    mode of ``repro-irs trace`` / ``metrics``) and ``duration`` (fixed-window trace, the
    ``serve-sim`` mode) must be given.
    """
    if (num_requests is None) == (duration is None):
        raise ConfigurationError(
            "pass exactly one of num_requests and duration to the traffic driver"
        )
    rng = as_rng(rng)
    mean_gap = 1.0 / float(arrival_rate)
    if num_requests is not None:
        if num_requests < 1:
            raise ConfigurationError(
                f"num_requests must be at least 1, got {num_requests}"
            )
        return np.cumsum(rng.exponential(mean_gap, size=int(num_requests)))
    offsets: "list[float]" = []
    elapsed = 0.0
    while True:
        elapsed += float(rng.exponential(mean_gap))
        if elapsed >= duration:
            break
        offsets.append(elapsed)
    return np.asarray(offsets, dtype=np.float64)


def latency_percentiles(latencies_ms: "Sequence[float]") -> dict:
    """The latency summary a driver report carries: p50/p95/p99, mean, max."""
    if not len(latencies_ms):
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    values = np.asarray(latencies_ms, dtype=np.float64)
    return {
        "count": int(values.size),
        "mean": round(float(values.mean()), 3),
        "p50": round(float(np.percentile(values, 50)), 3),
        "p95": round(float(np.percentile(values, 95)), 3),
        "p99": round(float(np.percentile(values, 99)), 3),
        "max": round(float(values.max()), 3),
    }


def run_open_loop(
    loop: ServingLoop,
    contexts: "Sequence[Context]",
    arrival_rate: "float | None" = None,
    num_requests: "int | None" = None,
    duration: "float | None" = None,
    seed: "int | np.random.Generator | None" = 0,
    max_length: "int | None" = None,
    raise_on_error: bool = True,
    collect_samples: bool = False,
) -> dict:
    """Offer open-loop Poisson traffic to the serving loop and measure it.

    Each arrival issues a ``next_step`` request for the next context in
    round-robin order against that context's evolving session (sessions
    reset once they reach the objective, exhaust the horizon, or the
    planner returns ``None``).  Open-loop discipline: if a context's
    previous request is still in flight when its next arrival fires, the
    new request is offered anyway with the last known session state —
    arrivals never wait for *responses*.  The one thing that can slow the
    offered process is the loop's own ``block`` admission policy: a full
    queue then stalls the arrival thread (that is what back-pressure
    means), so under overload the trace degrades toward closed-loop.  The
    report's ``max_schedule_lag_ms`` records how far behind its schedule
    the driver fell — near zero means the offered trace was delivered as
    generated; use the ``reject`` policy for a strictly open trace under
    overload.  Latency is always measured from each request's *scheduled*
    arrival instant to the drain that answered it, so any admission stall
    or queueing delay is charged to the system, never silently omitted.

    With neither ``num_requests`` nor ``duration``, the configured
    ``REPRO_SERVE_DURATION`` window (default 2 s) applies.

    ``loop`` is anything with the serving-loop surface (``enqueue``,
    ``stats``, ``admission``, ``planner``) — a
    :class:`~repro.serve.loop.ServingLoop` or a
    :class:`~repro.distributed.RemoteReplicaSet`.  ``raise_on_error=False`` turns a
    failed drain from a loud re-raise into an ``errored_requests`` count
    (a hot refit's ``no_pause`` bit needs that count to be zero rather
    than dying on the first failure), and ``collect_samples=True`` adds a
    per-admitted-request ``samples`` list — arrival offset, latency and the
    generation/replica that answered — so callers can split percentiles
    around a mid-run model flip.
    """
    if not contexts:
        raise ConfigurationError("the open-loop driver needs at least one serving context")
    rate = resolve_arrival_rate(arrival_rate)
    if num_requests is None and duration is None:
        duration = resolve_serve_duration(None)
    offsets = poisson_arrival_offsets(
        rate, as_rng(seed), num_requests=num_requests, duration=duration
    )
    if max_length is None:
        max_length = int(getattr(loop.planner, "max_length", 20))

    sessions: "list[list[int]]" = [[] for _ in contexts]
    finished = [False] * len(contexts)
    #: per-context in-flight request tracked for session advancement (extra
    #: open-loop requests for a busy context offer load but do not advance
    #: the session — their responses duplicate the tracked one).
    in_flight: "list[ServeRequest | None]" = [None] * len(contexts)
    admitted: "list[tuple[float, ServeRequest]]" = []
    rejected = 0

    def advance(index: int) -> None:
        request = in_flight[index]
        if request is None or not request.future.done():
            return
        in_flight[index] = None
        try:
            item = request.future.result()
        except Exception:
            if raise_on_error:
                raise
            # Counted once, in the final collection loop (this request is in
            # `admitted` too); the session just resets and the trace goes on.
            finished[index] = True
            return
        if item is None:
            finished[index] = True
            return
        sessions[index].append(int(item))
        if int(item) == int(contexts[index][1]) or len(sessions[index]) >= max_length:
            finished[index] = True

    start = time.perf_counter()
    max_schedule_lag = 0.0
    for arrival, offset in enumerate(offsets):
        target = start + float(offset)
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        else:
            max_schedule_lag = max(max_schedule_lag, -delay)
        index = arrival % len(contexts)
        advance(index)
        if finished[index]:
            sessions[index] = []
            finished[index] = False
        history, objective, user_index = contexts[index]
        request = ServeRequest.create(
            "next_step",
            history,
            objective,
            path_so_far=sessions[index],
            user_index=user_index,
        )
        try:
            loop.enqueue(request)
        except QueueFullError:
            rejected += 1
            continue
        admitted.append((target, request))
        if in_flight[index] is None:
            in_flight[index] = request

    latencies_ms = []
    samples: "list[dict]" = []
    errored = 0
    for target, request in admitted:
        try:
            request.future.result()  # propagate drain failures loudly
        except Exception:
            # Drain failures only: KeyboardInterrupt/SystemExit propagate —
            # a non-raising run must still be interruptible.
            if raise_on_error:
                raise
            errored += 1
            continue
        latency_ms = 1000.0 * (request.completed_at - target)
        latencies_ms.append(latency_ms)
        if collect_samples:
            samples.append(
                {
                    "offset_s": round(target - start, 4),
                    "latency_ms": round(latency_ms, 3),
                    "generation": request.served_generation,
                    "replica": request.replica_index,
                }
            )
    wall = max(time.perf_counter() - start, 1e-9)

    stats = loop.stats()
    report = {
        "arrival_rate": rate,
        "offered_requests": int(len(offsets)),
        "admitted_requests": len(admitted),
        "rejected_requests": rejected,
        "errored_requests": errored,
        "num_contexts": len(contexts),
        "max_length": max_length,
        "duration_seconds": round(wall, 4),
        "throughput_rps": round(len(admitted) / wall, 2),
        "max_schedule_lag_ms": round(1000.0 * max_schedule_lag, 3),
        "latency_ms": latency_percentiles(latencies_ms),
        "queue_depth": stats["queue_depth"],
        "micro_batches": stats["micro_batches"],
        "resident": stats["resident"],
        "admission": {**loop.admission.describe(), **stats["admission"]},
    }
    if collect_samples:
        report["samples"] = samples
    return report
