"""Measurement harness for replicated serving with an optional hot refit.

:func:`run_replicated_open_loop` offers the same seeded open-loop Poisson
traffic as :func:`repro.serve.driver.run_open_loop` (the replica set
duck-types the serving-loop surface), optionally arming a hot refit
mid-trace, and post-processes the per-request samples into the report
``repro-irs serve-sim --refit-at`` publishes:

* the standard throughput / latency-percentile / queue / admission block;
* ``generations_served`` — how many answers each generation produced;
* per-generation latency percentiles (the before/after view of the flip);
* the refit report (train seconds, microsecond flip, in-flight at flip);
* the ``no_pause`` bit — the acceptance contract of the replication rung:
  zero errored requests and zero rejections beyond what the configured
  admission policy allows (under ``block`` any rejection is a violation;
  under ``reject`` rejections *are* the policy).
"""

from __future__ import annotations

from typing import Sequence

from repro.replica.refit import schedule_refit
from repro.serve.driver import latency_percentiles, run_open_loop

__all__ = ["run_replicated_open_loop"]


def run_replicated_open_loop(
    replica_set,
    contexts: Sequence,
    arrival_rate: "float | None" = None,
    num_requests: "int | None" = None,
    duration: "float | None" = None,
    seed: int = 0,
    max_length: "int | None" = None,
    refit_at: "float | None" = None,
) -> dict:
    """Drive open-loop traffic at a replica set, optionally hot-refitting.

    ``refit_at`` arms the refit ``refit_at`` seconds after the call (traffic
    generation starts microseconds later, so the offset is measured from
    trace start for practical purposes).  The trace and the refit overlap
    freely: if training outlasts the trace the flip simply lands after the
    last arrival — the report's ``refit.completed_during_trace`` bit says
    which happened, and the refit is always joined before this returns.
    """
    handle = schedule_refit(replica_set, refit_at) if refit_at is not None else None
    report = run_open_loop(
        replica_set,
        contexts,
        arrival_rate=arrival_rate,
        num_requests=num_requests,
        duration=duration,
        seed=seed,
        max_length=max_length,
        raise_on_error=False,
        collect_samples=True,
    )
    if handle is not None:
        refit_report = handle.result()
        refit_report["scheduled_at_seconds"] = handle.delay_seconds
        refit_report["completed_during_trace"] = (
            handle.delay_seconds + refit_report["train_seconds"]
            <= report["duration_seconds"]
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

    stats = replica_set.stats()
    report["dispatch"] = stats["dispatch"]
    report["replicas"] = stats["replicas"]
    report["fit_generation"] = stats["generation"]
    return report
