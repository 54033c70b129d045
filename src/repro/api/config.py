"""Typed configuration for the public API.

:class:`RuntimeConfig` gathers the cluster shape, the execution policy, the
simulator calibration (:class:`~repro.sim.config.SimConfig`), the failure
plan and the runtime switches into one validated dataclass.  Like every
config class it takes ``to_dict``/``from_dict`` from :mod:`repro.codec`:
``RuntimeConfig.from_dict(json.loads(json.dumps(config.to_dict())))``
equals ``config``, and a malformed document raises ``ValueError`` naming
the bad field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from ..codec import Codec
from ..core.policies import ExecutionPolicy, swift_policy
from ..sim.config import SimConfig
from ..sim.failures import FailurePlan

#: ``reference_duration`` accepts one global value or a per-job mapping.
ReferenceDuration = Union[float, dict[str, float]]


@dataclass
class RuntimeConfig(Codec):
    """Everything needed to build a runnable cluster + runtime pair.

    Consolidates the cluster shape, the execution policy, the simulator
    calibration (:class:`~repro.sim.config.SimConfig`), the failure plan,
    and the runtime switches that used to be loose keyword arguments.
    """

    #: Cluster shape (the paper's testbed is 100 machines x 32 executors).
    n_machines: int = 100
    executors_per_machine: int = 32
    #: System under test; defaults to Swift's production bundle.
    policy: ExecutionPolicy = field(default_factory=swift_policy)
    #: Simulator calibration constants.
    sim: SimConfig = field(default_factory=SimConfig)
    #: Failures to inject (empty plan = failure-free run).
    failure_plan: FailurePlan = field(default_factory=FailurePlan)
    #: Non-failure job duration used to resolve ``at_fraction`` failures.
    reference_duration: ReferenceDuration = 100.0
    #: Wire a :class:`repro.audit.ResourceLedger` through the runtime so
    #: every register/release of connections, Cache Worker bytes, and
    #: executor slots is reconciled at checkpoints.
    audit: bool = False
    #: Strict audit raises :class:`repro.audit.AuditError` on the first
    #: violation; non-strict records violations and emits obs instants.
    audit_strict: bool = True

    def validate(self) -> "RuntimeConfig":
        """Validate every field; returns self so calls can chain."""
        for name in ("n_machines", "executors_per_machine"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        durations = (
            self.reference_duration.values()
            if isinstance(self.reference_duration, dict)
            else [self.reference_duration]
        )
        if not all(math.isfinite(v) and v > 0 for v in durations):
            raise ValueError("reference durations must be finite and positive")
        self.sim.validate()
        return self
