"""Tenant, admission, and queueing policy dataclasses for the gateway.

All three take ``to_dict``/``from_dict`` from :mod:`repro.codec`, like
:class:`repro.api.RuntimeConfig`, so a whole service configuration can be
checked into JSON and replayed deterministically; a malformed document
raises :class:`PolicyValidationError`.

The model follows the multi-tenant queueing shape of cloud data services
(PAPER.md §I/§VI; "Scheduling Storms and Streams in the Cloud"): every
arrival belongs to a *tenant* carrying quotas and a fair-share weight;
admission control sheds load when executor-pool pressure crosses a
threshold (the NOT_ENOUGH_SLOTS response); queued work is ordered
earliest-deadline-first inside each tenant and weighted-fair across
tenants, with strict priority tiers on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codec import Codec


class PolicyValidationError(ValueError):
    """A service policy dataclass failed validation."""


class _PolicyCodec(Codec):
    """The codec with :class:`PolicyValidationError` for bad payloads."""

    payload_error = PolicyValidationError


@dataclass(frozen=True)
class TenantSpec(_PolicyCodec):
    """Per-tenant quotas and scheduling weight."""

    #: Tenant identifier; gateway queues and reports are keyed by it.
    name: str
    #: Max jobs a tenant may have dispatched-but-unfinished (0 = unlimited).
    max_concurrent_jobs: int = 0
    #: Max executor slots its running jobs may claim, measured as each
    #: job's largest gang request (0 = unlimited).
    max_executor_slots: int = 0
    #: Weighted fair-share weight; dispatch charges ``slots / weight``
    #: virtual time, so a weight-2 tenant drains twice as fast as weight-1.
    weight: float = 1.0
    #: Strict-priority tier; higher tiers always dispatch first when
    #: :attr:`QueuePolicy.strict_priority` is on.
    priority: int = 0

    def validate(self) -> "TenantSpec":
        """Raise :class:`PolicyValidationError` on bad values; return self."""
        if not self.name:
            raise PolicyValidationError("TenantSpec.name must be non-empty")
        if self.max_concurrent_jobs < 0:
            raise PolicyValidationError("max_concurrent_jobs must be >= 0")
        if self.max_executor_slots < 0:
            raise PolicyValidationError("max_executor_slots must be >= 0")
        if self.weight <= 0:
            raise PolicyValidationError("weight must be > 0")
        return self


#: Admission verdicts when pool pressure exceeds the policy threshold.
ON_PRESSURE_REJECT = "reject"
ON_PRESSURE_QUEUE = "queue"


@dataclass(frozen=True)
class AdmissionPolicy(_PolicyCodec):
    """When the gateway rejects an arrival instead of queueing it.

    Jobs whose largest gang request can never fit — it exceeds cluster
    capacity or the tenant's ``max_executor_slots`` — are always rejected
    (reason ``oversize``): queueing them would deadlock the tenant queue.
    """

    #: Max jobs waiting in one tenant's queue before ``queue_full``
    #: rejections (0 = unlimited).
    max_pending_per_tenant: int = 0
    #: Pool-pressure threshold (demand / total executors, see
    #: :meth:`repro.core.scheduler.ResourceScheduler.pool_pressure`) above
    #: which arrivals get the ``not_enough_slots`` treatment (0 = disabled).
    max_pool_pressure: float = 0.0
    #: What the ``not_enough_slots`` treatment is: ``"reject"`` sheds the
    #: arrival, ``"queue"`` admits it but lets it wait out the pressure.
    on_pressure: str = ON_PRESSURE_REJECT

    def validate(self) -> "AdmissionPolicy":
        """Raise :class:`PolicyValidationError` on bad values; return self."""
        if self.max_pending_per_tenant < 0:
            raise PolicyValidationError("max_pending_per_tenant must be >= 0")
        if self.max_pool_pressure < 0:
            raise PolicyValidationError("max_pool_pressure must be >= 0")
        if self.on_pressure not in (ON_PRESSURE_REJECT, ON_PRESSURE_QUEUE):
            raise PolicyValidationError(
                f"on_pressure must be 'reject' or 'queue', got {self.on_pressure!r}"
            )
        return self


@dataclass(frozen=True)
class QueuePolicy(_PolicyCodec):
    """How queued arrivals are ordered for dispatch."""

    #: Weighted fair share across tenants (False = FIFO by global arrival).
    fair_share: bool = True
    #: Higher :attr:`TenantSpec.priority` tiers always dispatch first.
    strict_priority: bool = True
    #: Earliest-deadline-first inside each tenant queue (False = FIFO;
    #: deadline-less jobs sort last either way).
    deadline_first: bool = True

    def validate(self) -> "QueuePolicy":
        """No invalid combinations today; kept for config-surface symmetry."""
        return self


def default_tenant_template() -> TenantSpec:
    """The template used when unknown tenants are auto-registered."""
    return TenantSpec(name="default")


__all__ = [
    "ON_PRESSURE_QUEUE",
    "ON_PRESSURE_REJECT",
    "AdmissionPolicy",
    "PolicyValidationError",
    "QueuePolicy",
    "TenantSpec",
    "default_tenant_template",
]
