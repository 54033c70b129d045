"""repro.service — the multi-tenant job-submission gateway.

Sits between workload generators and :class:`repro.core.SwiftRuntime`:
Poisson / trace-driven arrivals, per-tenant quotas and equal fair share,
admission control under pool pressure, and earliest-deadline-first
dispatch.  The stable entry point is :class:`repro.api.Service`; this
package holds the engine pieces.
"""

from .gateway import JobEntry, JobGateway, RejectReason
from .policy import (
    AdmissionPolicy,
    PolicyValidationError,
    TenantSpec,
    default_tenant_template,
)
from .stats import TenantReport, build_reports, distribution, percentile, queue_csv

__all__ = [
    "AdmissionPolicy",
    "JobEntry",
    "JobGateway",
    "PolicyValidationError",
    "RejectReason",
    "TenantReport",
    "TenantSpec",
    "build_reports",
    "default_tenant_template",
    "distribution",
    "percentile",
    "queue_csv",
]
