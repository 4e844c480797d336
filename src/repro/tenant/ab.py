"""Online A/B harness: simulated cohorts against two tenants of one fleet.

The offline experiment driver (:mod:`repro.simulation.experiment`) calls
each framework's ``next_step`` directly.  This harness instead routes
every step of every session through a serving front-end's typed
``serve(request)`` surface — the same :class:`~repro.serve.loop.ServingLoop`,
:class:`~repro.replica.set.ReplicaSet` or
:class:`~repro.distributed.remote.RemoteReplicaSet` production traffic
uses — with each cohort's requests carrying its arm's tenant id.  What
comes back is both the experiment readout (interactive success uplift of
the treatment tenant over the control tenant, on identical simulated
users) and the serving readout (per-tenant p50/p95 latency against an
SLO), measured on the same requests.

Determinism contract: the simulated users draw from seeds derived only
from ``(seed, instance)`` — never the arm — so both cohorts face
identical users, and two runs of :func:`run_ab` against deterministic
tenants produce identical reports (``tests/tenant/test_ab.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.serve.api import NextStepRequest
from repro.simulation.experiment import _profile_for_instance
from repro.simulation.metrics import SessionMetrics, aggregate_sessions
from repro.simulation.policies import ExcludeRejectedPolicy, ReplanningPolicy
from repro.simulation.session import InteractiveSession, SessionResult
from repro.simulation.user import SimulatedUser
from repro.utils.exceptions import ConfigurationError

__all__ = ["TenantArm", "ArmResult", "ABReport", "ServingTenantRecommender", "run_ab"]


class ServingTenantRecommender:
    """``next_step`` shim that answers through a serving front-end.

    Every call becomes one tenanted :class:`NextStepRequest` on the
    front-end's ``serve`` surface, so the session loop exercises
    admission, dispatch and (for remote fleets) the wire — and
    the response stamps double as the arm's latency sample stream.
    """

    def __init__(self, front_end, tenant: str) -> None:
        self.front_end = front_end
        self.tenant = tenant
        self.latencies_s: "list[float]" = []

    def next_step(
        self,
        history: Sequence[int],
        objective: int,
        path_so_far: Sequence[int] = (),
        user_index: "int | None" = None,
    ) -> "int | None":
        response = self.front_end.serve(
            NextStepRequest(
                history=tuple(history),
                objective=int(objective),
                path_so_far=tuple(path_so_far),
                user_index=user_index,
                tenant=self.tenant,
            )
        ).result()
        self.latencies_s.append(response.latency_s)
        answer = response.answer
        return None if answer is None else int(answer)


@dataclass(frozen=True)
class TenantArm:
    """One cohort: a tenant id plus the label it reports under."""

    tenant: str
    label: "str | None" = None

    @property
    def name(self) -> str:
        return self.label or self.tenant


@dataclass(frozen=True)
class ArmResult:
    """One arm's experiment metrics and serving latencies."""

    arm: str
    tenant: str
    metrics: SessionMetrics
    requests: int
    latency_p50_ms: float
    latency_p95_ms: float
    slo_p95_ms: "float | None"

    @property
    def slo_met(self) -> "bool | None":
        if self.slo_p95_ms is None:
            return None
        return self.latency_p95_ms <= self.slo_p95_ms

    def as_row(self) -> dict:
        row = self.metrics.as_row(self.arm)
        row["tenant"] = self.tenant
        row["requests"] = self.requests
        row["p50_ms"] = round(self.latency_p50_ms, 3)
        row["p95_ms"] = round(self.latency_p95_ms, 3)
        if self.slo_p95_ms is not None:
            row["slo_p95_ms"] = self.slo_p95_ms
            row["slo_met"] = bool(self.slo_met)
        return row


@dataclass(frozen=True)
class ABReport:
    """The two arms plus the uplift of treatment over control."""

    control: ArmResult
    treatment: ArmResult

    @property
    def uplift(self) -> float:
        """Interactive-success-rate delta (treatment minus control)."""
        return (
            self.treatment.metrics.interactive_success_rate
            - self.control.metrics.interactive_success_rate
        )

    def rows(self) -> "list[dict]":
        return [self.control.as_row(), self.treatment.as_row()]

    def summary(self) -> dict:
        """The flat dict the CLI prints and the determinism test compares."""
        return {
            "control": self.control.as_row(),
            "treatment": self.treatment.as_row(),
            "uplift": round(self.uplift, 4),
        }


def _percentile_ms(latencies_s: "list[float]", q: float) -> float:
    if not latencies_s:
        return 0.0
    return float(np.percentile(np.asarray(latencies_s, dtype=np.float64), q) * 1000.0)


def run_ab(
    front_end,
    control: "TenantArm | str",
    treatment: "TenantArm | str",
    instances: Sequence,
    evaluator,
    *,
    policy: "ReplanningPolicy | None" = None,
    max_steps: int = 12,
    patience: "int | None" = 3,
    use_corpus_traits: bool = True,
    seed: int = 0,
    slo_p95_ms: "float | None" = None,
    keep_sessions: bool = False,
) -> "ABReport | tuple[ABReport, dict[str, list[SessionResult]]]":
    """Drive two simulated cohorts through one serving fleet and compare.

    Parameters mirror
    :func:`~repro.simulation.experiment.run_interactive_experiment`; the
    difference is the first argument — a serving front-end with the typed
    ``serve`` surface — and that each arm is a *tenant* of that fleet
    rather than a model held in hand.
    """
    if not instances:
        raise ConfigurationError("run_ab needs at least one evaluation instance")
    control = TenantArm(control) if isinstance(control, str) else control
    treatment = TenantArm(treatment) if isinstance(treatment, str) else treatment
    if control.tenant == treatment.tenant:
        raise ConfigurationError(
            f"control and treatment must be different tenants (both {control.tenant!r})"
        )
    policy = policy or ExcludeRejectedPolicy()
    corpus = evaluator.model.corpus
    traits = corpus.user_traits if (use_corpus_traits and corpus is not None) else None

    results: "list[ArmResult]" = []
    all_sessions: "dict[str, list[SessionResult]]" = {}
    for arm in (control, treatment):
        shim = ServingTenantRecommender(front_end, arm.tenant)
        sessions: "list[SessionResult]" = []
        for instance_number, instance in enumerate(instances):
            profile = _profile_for_instance(instance, traits, patience)
            user = SimulatedUser(
                evaluator,
                profile=profile,
                # Arm-independent seeds: both cohorts face identical users.
                seed=seed * 100003 + instance_number,
            )
            session = InteractiveSession(shim, user, policy=policy, max_steps=max_steps)
            sessions.append(
                session.run(
                    instance.history, instance.objective, user_index=instance.user_index
                )
            )
        results.append(
            ArmResult(
                arm=arm.name,
                tenant=arm.tenant,
                metrics=aggregate_sessions(sessions),
                requests=len(shim.latencies_s),
                latency_p50_ms=_percentile_ms(shim.latencies_s, 50.0),
                latency_p95_ms=_percentile_ms(shim.latencies_s, 95.0),
                slo_p95_ms=slo_p95_ms,
            )
        )
        if keep_sessions:
            all_sessions[arm.name] = sessions

    report = ABReport(control=results[0], treatment=results[1])
    if keep_sessions:
        return report, all_sessions
    return report
