"""Execution policy bundles.

A policy bundle selects: how jobs are partitioned into schedulable units,
when units are submitted, which shuffle scheme edges use, how executors are
launched, and how failures are recovered.  Swift and every baseline system
are expressed as bundles over the same simulator, which is what makes the
comparisons and ablations apples-to-apples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Annotated

from ..codec import Codec, replace
from .partition import PARTITIONERS, Partitioner, SwiftPartitioner
from .shuffle import ShuffleScheme


class SubmissionOrder(enum.Enum):
    """When a schedulable unit may request executors."""
    #: Submit a unit only when *all* its input data are ready
    #: (Section III-A2's conservative order, Swift's default).
    CONSERVATIVE = "conservative"
    #: Submit every unit at job start; tasks wait for inputs while holding
    #: executors.  Models gang scheduling's waste and the ablation of the
    #: M7/M8 note in Section III-A2.
    EAGER = "eager"


class LaunchModel(enum.Enum):
    """How executors come to life: pre-launched pool or cold start."""
    #: Executors pre-launched when the service starts (Swift, JetScope).
    PRELAUNCHED = "prelaunched"
    #: Executors cold-started per job (Spark: package download + JVM start).
    COLDSTART = "coldstart"


class FailureRecovery(enum.Enum):
    """Failure-handling strategy: fine-grained re-run or whole-job restart."""
    #: Swift's graphlet-based fine-grained recovery (Section IV-B).
    FINE_GRAINED = "fine_grained"
    #: Restart the whole job on any failure.
    JOB_RESTART = "job_restart"


@dataclass
class ExecutionPolicy(Codec):
    """One system configuration runnable by the simulator."""

    name: str = "swift"
    #: Serialized as ``{"name": ..., **parameters}``, resolved through
    #: :data:`~repro.core.partition.PARTITIONERS`.
    partitioner: Annotated[Partitioner, PARTITIONERS] = field(default_factory=SwiftPartitioner)
    submission: SubmissionOrder = SubmissionOrder.CONSERVATIVE
    shuffle: ShuffleScheme = ShuffleScheme.ADAPTIVE
    #: Shuffle scheme used on cross-unit (barrier) edges; defaults to the
    #: same policy.  Disk-based baselines materialise cross-unit data.
    cross_unit_shuffle: ShuffleScheme | None = None
    launch: LaunchModel = LaunchModel.PRELAUNCHED
    recovery: FailureRecovery = FailureRecovery.FINE_GRAINED
    #: Whether pipeline edges inside a unit actually stream (Swift) or the
    #: consumer waits for the producer to finish (disk-based systems).
    pipelined_execution: bool = True
    #: All-or-nothing resource grants per unit (gang scheduling).  Spark's
    #: per-stage units instead run in waves as slots free up.
    gang: bool = True

    def effective_cross_unit_shuffle(self) -> ShuffleScheme:
        """The shuffle scheme applied to cross-unit (barrier) edges."""
        return self.cross_unit_shuffle or self.shuffle


def swift_policy(**overrides: object) -> ExecutionPolicy:
    """Swift's production configuration."""
    return replace(ExecutionPolicy(name="swift"), **overrides)
