"""Measurement harness for serving across an optional hot refit.

:func:`run_replicated_open_loop` offers the same seeded open-loop Poisson
traffic as :func:`repro.serve.driver.run_open_loop` to either front-end —
a :class:`~repro.serve.loop.ServingLoop` or a
:class:`~repro.distributed.remote.RemoteReplicaSet` — optionally running a
hot refit mid-trace, and post-processes the per-request samples into the
report ``repro-irs serve-sim --refit-at`` publishes:

* the standard throughput / latency-percentile / queue / admission block;
* ``generations_served`` — how many answers each generation produced;
* per-generation latency percentiles (the before/after view of the flip);
* the refit report (train seconds, microsecond flip, in-flight at flip);
* the ``no_pause`` bit — the acceptance contract of a hot refit: zero
  errored requests and zero rejections beyond what the configured
  admission policy allows (under ``block`` any rejection is a violation;
  under ``reject`` rejections *are* the policy).
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Sequence

from repro.serve.driver import latency_percentiles, run_open_loop
from repro.utils.exceptions import ConfigurationError

__all__ = ["run_replicated_open_loop"]

logger = logging.getLogger(__name__)


def run_replicated_open_loop(
    front_end,
    contexts: Sequence,
    arrival_rate: "float | None" = None,
    num_requests: "int | None" = None,
    duration: "float | None" = None,
    seed: int = 0,
    max_length: "int | None" = None,
    refit_at: "float | None" = None,
    refit: "Callable[[], dict] | None" = None,
) -> dict:
    """Drive open-loop traffic at a front-end, optionally hot-refitting.

    ``refit`` is the zero-arg refit to run (``fleet.refit``, or a loop's
    ``refit`` bound to its planner factory) and ``refit_at`` when: that
    many seconds after the call, on a background thread (traffic generation
    starts microseconds later, so the offset is measured from trace start
    for practical purposes).  The trace and the refit overlap freely: if
    training outlasts the trace the flip simply lands after the last
    arrival — the report's ``refit.completed_during_trace`` bit says which
    happened, and the refit is always joined before this returns (its
    failure re-raised here).
    """
    if (refit_at is None) != (refit is None):
        raise ConfigurationError("refit_at and refit go together: when, and the refit to run")
    if refit_at is not None and refit_at < 0:
        raise ConfigurationError(f"refit delay must be non-negative, got {refit_at}")
    outcome: dict = {}
    if refit is not None:

        def run_refit() -> None:
            time.sleep(refit_at)
            try:
                outcome["report"] = refit()
            except BaseException as exc:  # noqa: BLE001 - re-raised after the trace
                outcome["error"] = exc
                logger.exception("scheduled refit failed")

        refitter = threading.Thread(target=run_refit, name="repro-refit", daemon=True)
        refitter.start()
    report = run_open_loop(
        front_end,
        contexts,
        arrival_rate=arrival_rate,
        num_requests=num_requests,
        duration=duration,
        seed=seed,
        max_length=max_length,
        raise_on_error=False,
        collect_samples=True,
    )
    if refit is not None:
        refitter.join()
        if "error" in outcome:
            raise outcome["error"]
        refit_report = dict(outcome["report"], scheduled_at_seconds=float(refit_at))
        refit_report["completed_during_trace"] = (
            refit_at + refit_report["train_seconds"] <= report["duration_seconds"]
        )
        report["refit"] = refit_report

    samples = report.pop("samples")
    by_generation: "dict[int | None, list[float]]" = {}
    for sample in samples:
        by_generation.setdefault(sample["generation"], []).append(sample["latency_ms"])
    report["generations_served"] = {
        str(generation): len(latencies)
        for generation, latencies in sorted(
            by_generation.items(), key=lambda item: (item[0] is None, item[0])
        )
    }
    report["latency_ms_by_generation"] = {
        str(generation): latency_percentiles(latencies)
        for generation, latencies in sorted(
            by_generation.items(), key=lambda item: (item[0] is None, item[0])
        )
    }

    policy = report["admission"]["policy"]
    report["no_pause"] = report["errored_requests"] == 0 and (
        policy != "block" or report["rejected_requests"] == 0
    )

    stats = front_end.stats()
    report["fit_generation"] = stats["generation"]
    for fleet_only in ("dispatch", "replicas"):
        if fleet_only in stats:
            report[fleet_only] = stats[fleet_only]
    return report
