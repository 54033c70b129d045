"""Fault injection: deterministic schedules and trace-calibrated sampling.

Two usage modes match the paper's two fault-tolerance experiments:

* Fig. 14 injects one failure per run into a named stage at a fixed point of
  normalized job progress — :class:`FailureSpec` with ``stage`` and
  ``at_fraction``.
* Fig. 15 replays traces with failures "regenerated according to the
  production traces": about 50% of failures occur within 30s and 90% within
  200s of job start.  :func:`sample_trace_failures` draws failure times from
  a distribution fitted to those two quantiles.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Optional

from ..codec import Codec

class FailureKind(enum.Enum):
    """The failure classes of Section IV (plus chaos-only hostile events)."""
    #: A task process crashes; recoverable by re-running the task.
    TASK_CRASH = "task_crash"
    #: An executor process dies and is re-launched; detected by self-report.
    PROCESS_RESTART = "process_restart"
    #: A whole machine dies; detected by missed heartbeats.
    MACHINE_CRASH = "machine_crash"
    #: Application-logic failure (memory access violation, missing table);
    #: re-running does not help (Section IV-C).
    APPLICATION_ERROR = "application_error"
    #: The Admin marks a machine read-only (Section IV-A): running tasks
    #: drain, no new tasks land there.  ``duration`` schedules recovery.
    MACHINE_QUARANTINE = "machine_quarantine"
    #: A Cache Worker process dies, losing all shuffle data it held; the
    #: producers of in-flight edges must re-generate and re-write it.
    CACHE_WORKER_LOSS = "cache_worker_loss"


@dataclass
class FailureSpec(Codec):
    """One planned failure.

    ``at_time`` is absolute simulated seconds; alternatively ``at_fraction``
    positions the failure at a fraction of a reference job duration (the
    normalization used by Fig. 14, where the non-failure execution time is
    100).  Exactly one of the two must be set.
    """

    kind: FailureKind = FailureKind.TASK_CRASH
    #: Stage name for task-level failures (e.g. "J3" of TPC-H Q13).
    stage: Optional[str] = None
    #: Task index within the stage; ``None`` picks the first running task.
    task_index: Optional[int] = None
    #: Machine id for MACHINE_CRASH / PROCESS_RESTART failures.
    machine_id: Optional[int] = None
    at_time: Optional[float] = None
    at_fraction: Optional[float] = None
    #: Job id for multi-job replays; ``None`` targets the only job.
    job_id: Optional[str] = None
    #: For MACHINE_QUARANTINE: seconds until the machine recovers (``None``
    #: keeps it quarantined for the rest of the run).
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "FailureSpec":
        """Raise a loud ``ValueError`` for a mis-specified failure.

        Exactly one of ``at_time`` / ``at_fraction`` must be set, and
        ``machine_id`` is not negative (the runtime checks it against the
        cluster).  This is checked at construction, but specs are mutable —
        re-validate after editing fields in place (``FailurePlan.add`` does
        so for you).
        """
        if self.at_time is None and self.at_fraction is None:
            raise ValueError(
                f"FailureSpec({self.kind.value}): neither at_time nor "
                "at_fraction is set; exactly one is required"
            )
        if self.at_time is not None and self.at_fraction is not None:
            raise ValueError(
                f"FailureSpec({self.kind.value}): both at_time={self.at_time} "
                f"and at_fraction={self.at_fraction} are set; exactly one is "
                "allowed"
            )
        if self.at_fraction is not None and self.at_fraction < 0:
            raise ValueError("at_fraction must be non-negative")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError("at_time must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive when set")
        if self.machine_id is not None and self.machine_id < 0:
            raise ValueError(f"machine_id={self.machine_id} is negative")
        return self

    def resolve_time(self, reference_duration: float) -> float:
        """Return the absolute injection time given a reference duration."""
        self.validate()
        if self.at_time is not None:
            return self.at_time
        assert self.at_fraction is not None
        if reference_duration <= 0:
            raise ValueError("reference_duration must be positive")
        return self.at_fraction * reference_duration


@dataclass
class FailurePlan(Codec):
    """A set of failures to inject during one simulation run."""

    specs: list[FailureSpec] = field(default_factory=list)

    def add(self, spec: FailureSpec) -> "FailurePlan":
        """Append one failure (re-validated); returns self for chaining."""
        self.specs.append(spec.validate())
        return self

    def for_job(self, job_id: str) -> list[FailureSpec]:
        """Failures targeting ``job_id`` (or any job)."""
        return [s for s in self.specs if s.job_id is None or s.job_id == job_id]

    def __len__(self) -> int:
        return len(self.specs)


def _weibull_from_quantiles(q1: float, t1: float, q2: float, t2: float) -> tuple[float, float]:
    """Fit a Weibull(shape k, scale lam) to two quantiles.

    Solves ``1 - exp(-(t/lam)^k) = q`` for both (t1, q1) and (t2, q2).
    """
    if not (0 < q1 < q2 < 1 and 0 < t1 < t2):
        raise ValueError("quantiles must be ordered and in (0, 1)")
    a1 = -math.log(1 - q1)
    a2 = -math.log(1 - q2)
    k = math.log(a2 / a1) / math.log(t2 / t1)
    lam = t1 / a1 ** (1 / k)
    return k, lam


#: Weibull parameters fitted so that P(t < 30s) = 0.5 and P(t < 200s) = 0.9
#: (Section V-F: "about 50% failures occur within 30s and 90% within 200s").
TRACE_FAILURE_SHAPE, TRACE_FAILURE_SCALE = _weibull_from_quantiles(0.5, 30.0, 0.9, 200.0)


def sample_failure_time(rng: random.Random) -> float:
    """Sample one failure time (seconds since job start) from the trace fit."""
    u = rng.random()
    return TRACE_FAILURE_SCALE * (-math.log(1 - u)) ** (1 / TRACE_FAILURE_SHAPE)


def sample_trace_failures(
    job_ids: list[str],
    failure_rate: float,
    rng: random.Random,
    kinds: tuple[FailureKind, ...] = (FailureKind.TASK_CRASH,),
) -> FailurePlan:
    """Build a failure plan for a trace replay.

    Each job independently suffers a failure with probability
    ``failure_rate``; failed jobs get one failure at a Weibull-sampled
    fraction-of-runtime offset (expressed via ``at_fraction`` relative to a
    nominal 100-unit duration so the runtime can rescale it).
    """
    if not 0 <= failure_rate <= 1:
        raise ValueError("failure_rate must be in [0, 1]")
    plan = FailurePlan()
    for job_id in job_ids:
        if rng.random() >= failure_rate:
            continue
        kind = kinds[rng.randrange(len(kinds))]
        offset = sample_failure_time(rng)
        # The Weibull fit is expressed in seconds of a nominal 100s job;
        # ``at_fraction`` makes it a fraction of each job's own runtime
        # (the runtime resolves it against a per-job reference), so short
        # trace jobs see proportionally early failures.
        plan.add(
            FailureSpec(
                kind=kind,
                at_fraction=min(offset / 100.0, 0.95),
                job_id=job_id,
            )
        )
    return plan
