"""Multi-tenant serving: several models behind one typed request API.

A :class:`~repro.tenant.registry.TenantRegistry` binds tenant ids to
served models — beam planners and :mod:`repro.models` recommenders —
each behind a kind adapter (:mod:`repro.tenant.adapters`) answering
:class:`~repro.serve.request.ServeRequest` envelopes, with per-tenant
latency metrics.
The serving front-ends accept a registry and become multi-tenant surfaces;
:mod:`repro.tenant.ab` drives simulated user cohorts against two tenants
through one fleet and reports uplift and per-tenant latency SLOs.
"""

from repro.tenant.adapters import KindAdapter, PlannerAdapter, RecommenderAdapter, adapt
from repro.tenant.registry import TenantBinding, TenantRegistry

__all__ = [
    "KindAdapter",
    "PlannerAdapter",
    "RecommenderAdapter",
    "adapt",
    "TenantBinding",
    "TenantRegistry",
]
