"""Tenant and admission policy dataclasses for the gateway.

Both take ``to_dict``/``from_dict`` from :mod:`repro.codec`, like
:class:`repro.api.RuntimeConfig`, so a whole service configuration can be
checked into JSON and replayed deterministically; a malformed document
or value raises :class:`PolicyValidationError`.

The model follows the multi-tenant queueing shape of cloud data services
(PAPER.md §I/§VI; "Scheduling Storms and Streams in the Cloud"): every
arrival belongs to a *tenant*, registered from one quota template on its
first arrival; admission control sheds load when executor-pool pressure
crosses a threshold (the NOT_ENOUGH_SLOTS response); queued work is
ordered earliest-deadline-first inside each tenant and by equal fair
share across tenants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..codec import Codec


class PolicyValidationError(ValueError):
    """A service policy dataclass failed validation."""


class _PolicyCodec(Codec):
    """The codec with :class:`PolicyValidationError` for bad payloads."""

    payload_error = PolicyValidationError


def _check_count(value: object, name: str) -> None:
    """A limit is a non-negative ``int`` (not a ``bool``); 0 = unlimited."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise PolicyValidationError(f"{name} must be an int >= 0, got {value!r}")


@dataclass(frozen=True)
class TenantSpec(_PolicyCodec):
    """Per-tenant quota; every tenant gets a copy of one template."""

    #: Tenant identifier; gateway queues and reports are keyed by it.
    name: str
    #: Max jobs a tenant may have dispatched-but-unfinished (0 = unlimited).
    max_concurrent_jobs: int = 0

    def validate(self) -> "TenantSpec":
        """Raise :class:`PolicyValidationError` on bad values; return self."""
        if not isinstance(self.name, str) or not self.name:
            raise PolicyValidationError("TenantSpec.name must be a non-empty string")
        _check_count(self.max_concurrent_jobs, "max_concurrent_jobs")
        return self


#: Admission verdicts when pool pressure exceeds the policy threshold.
ON_PRESSURE_REJECT = "reject"
ON_PRESSURE_QUEUE = "queue"


@dataclass(frozen=True)
class AdmissionPolicy(_PolicyCodec):
    """When the gateway rejects an arrival instead of queueing it.

    Jobs whose largest gang request exceeds cluster capacity can never
    fit and are always rejected (reason ``oversize``): queueing them
    would deadlock the tenant queue.
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
        _check_count(self.max_pending_per_tenant, "max_pending_per_tenant")
        pressure = self.max_pool_pressure
        # NaN would silently disable admission control (every comparison
        # with it is false), so only finite numbers pass.
        if (
            isinstance(pressure, bool)
            or not isinstance(pressure, (int, float))
            or not math.isfinite(pressure)
            or pressure < 0
        ):
            raise PolicyValidationError(
                f"max_pool_pressure must be a finite number >= 0, got {pressure!r}"
            )
        if self.on_pressure not in (ON_PRESSURE_REJECT, ON_PRESSURE_QUEUE):
            raise PolicyValidationError(
                f"on_pressure must be 'reject' or 'queue', got {self.on_pressure!r}"
            )
        return self


def default_tenant_template() -> TenantSpec:
    """The quota template every tenant is registered from by default."""
    return TenantSpec(name="default")


__all__ = [
    "ON_PRESSURE_QUEUE",
    "ON_PRESSURE_REJECT",
    "AdmissionPolicy",
    "PolicyValidationError",
    "TenantSpec",
    "default_tenant_template",
]
