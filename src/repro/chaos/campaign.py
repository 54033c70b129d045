"""Chaos campaigns: seeded random schedules of composed failures.

A :class:`Campaign` is a deterministic function of ``(seed, workload,
profile)``: the same triple always generates the same events and
perturbations, which is what makes shrinking (:mod:`repro.chaos.shrink`)
and replayable JSON repro files possible.

Event times are expressed as *fractions* of the failure-free baseline
makespan (like the paper's Fig. 14 normalization), so one campaign is
meaningful across workloads of very different absolute durations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

from ..codec import Codec
from ..sim.config import SimConfig
from ..sim.failures import FailureKind, FailurePlan, FailureSpec

#: Quantized perturbation levels.  Coarse on purpose: the chaos engine
#: caches one failure-free baseline per (workload, perturbations) pair, so
#: a small value set keeps the cache hot across a sweep.
NETWORK_FACTORS = (1.0, 0.5, 0.25)
CACHE_FACTORS = (1.0, 0.25, 0.05)


@dataclass(frozen=True)
class Perturbations(Codec):
    """Config-level degradations applied for the whole run.

    ``network_factor`` scales NIC bandwidth (degraded links);
    ``cache_factor`` scales Cache Worker memory (pressure -> LRU spills).
    """

    network_factor: float = 1.0
    cache_factor: float = 1.0

    def apply(self, config: SimConfig) -> SimConfig:
        """Return a perturbed copy of ``config`` (the input is untouched)."""
        out = config.copy()
        out.network.nic_bandwidth *= self.network_factor
        # Capacity stays a whole number of bytes.
        out.cache_worker.memory_capacity = int(
            out.cache_worker.memory_capacity * self.cache_factor
        )
        return out

    def key(self) -> tuple[float, float]:
        """Hashable identity used for baseline caching."""
        return (self.network_factor, self.cache_factor)


@dataclass(frozen=True)
class ChaosEvent(Codec):
    """One discrete failure in a campaign, positioned by baseline fraction."""

    kind: str
    at_fraction: float
    machine_id: Optional[int] = None
    stage: Optional[str] = None
    task_index: Optional[int] = None
    #: Quarantine storms recover after ``duration`` simulated seconds.
    duration: Optional[float] = None

    def to_spec(self) -> FailureSpec:
        """Materialize as an injectable :class:`FailureSpec`."""
        return FailureSpec(
            kind=FailureKind(self.kind),
            stage=self.stage,
            task_index=self.task_index,
            machine_id=self.machine_id,
            at_fraction=self.at_fraction,
            duration=self.duration,
        )


@dataclass(frozen=True)
class ChaosProfile:
    """Hostility level of campaign generation."""

    name: str
    min_events: int
    max_events: int
    #: (kind value, weight) pairs for event sampling.
    kind_weights: tuple[tuple[str, float], ...]
    #: Fraction of campaigns that also degrade the network / cache memory.
    perturbation_probability: float
    #: Per-campaign cap on machine crashes as a fraction of the cluster;
    #: keeps gang scheduling satisfiable so livelock signals a real bug.
    max_crash_fraction: float = 0.25
    #: Probability a campaign includes an application error (which fails the
    #: job by design; the invariants expect it).
    app_error_probability: float = 0.0

    def crash_cap(self, n_machines: int) -> int:
        """Most machines this profile may kill on an ``n_machines`` cluster."""
        return max(1, int(n_machines * self.max_crash_fraction))


PROFILES: dict[str, ChaosProfile] = {
    "light": ChaosProfile(
        name="light",
        min_events=1,
        max_events=3,
        kind_weights=(
            (FailureKind.TASK_CRASH.value, 6.0),
            (FailureKind.PROCESS_RESTART.value, 2.0),
            (FailureKind.CACHE_WORKER_LOSS.value, 1.0),
        ),
        perturbation_probability=0.0,
    ),
    "standard": ChaosProfile(
        name="standard",
        min_events=2,
        max_events=6,
        kind_weights=(
            (FailureKind.TASK_CRASH.value, 5.0),
            (FailureKind.PROCESS_RESTART.value, 2.0),
            (FailureKind.MACHINE_CRASH.value, 1.5),
            (FailureKind.MACHINE_QUARANTINE.value, 1.5),
            (FailureKind.CACHE_WORKER_LOSS.value, 1.0),
        ),
        perturbation_probability=0.3,
    ),
    "hostile": ChaosProfile(
        name="hostile",
        min_events=4,
        max_events=10,
        kind_weights=(
            (FailureKind.TASK_CRASH.value, 4.0),
            (FailureKind.PROCESS_RESTART.value, 2.0),
            (FailureKind.MACHINE_CRASH.value, 2.0),
            (FailureKind.MACHINE_QUARANTINE.value, 3.0),
            (FailureKind.CACHE_WORKER_LOSS.value, 2.0),
        ),
        perturbation_probability=0.6,
        app_error_probability=0.1,
    ),
    # Shuffle-v2 targeted profiles: each stresses one leg of the resilient
    # adaptive shuffle (replication failover, mode switching under pressure,
    # and load-aware replica placement under skewed capacity).
    "cache-worker-loss-during-shuffle": ChaosProfile(
        name="cache-worker-loss-during-shuffle",
        min_events=2,
        max_events=6,
        kind_weights=(
            (FailureKind.CACHE_WORKER_LOSS.value, 6.0),
            (FailureKind.TASK_CRASH.value, 1.0),
        ),
        perturbation_probability=0.2,
    ),
    "mode-switch-under-crash": ChaosProfile(
        name="mode-switch-under-crash",
        min_events=2,
        max_events=6,
        kind_weights=(
            (FailureKind.MACHINE_CRASH.value, 2.0),
            (FailureKind.PROCESS_RESTART.value, 2.0),
            (FailureKind.CACHE_WORKER_LOSS.value, 2.0),
            (FailureKind.TASK_CRASH.value, 1.0),
        ),
        # Always perturb: shrunken cache capacity is what drives the
        # pressure-demotion arm of the mode controller mid-campaign.
        perturbation_probability=1.0,
    ),
    "replica-placement-skew": ChaosProfile(
        name="replica-placement-skew",
        min_events=1,
        max_events=4,
        kind_weights=(
            (FailureKind.MACHINE_QUARANTINE.value, 3.0),
            (FailureKind.CACHE_WORKER_LOSS.value, 3.0),
        ),
        # Skewed capacity makes load-aware placement earn its keep.
        perturbation_probability=1.0,
    ),
}


@dataclass
class Campaign(Codec):
    """One generated (or shrunk) schedule of failures plus perturbations."""

    seed: int
    workload: str
    profile: str
    events: list[ChaosEvent] = field(default_factory=list)
    perturbations: Perturbations = field(default_factory=Perturbations)
    #: True once the shrinker has minimized this campaign.
    shrunk: bool = False

    def to_failure_plan(self) -> FailurePlan:
        """The injectable plan for this campaign."""
        plan = FailurePlan()
        for event in self.events:
            plan.add(event.to_spec())
        return plan

    def has_kind(self, kind: FailureKind) -> bool:
        """True when any event is of ``kind``."""
        return any(e.kind == kind.value for e in self.events)

    def save(self, path: str) -> None:
        """Write the replayable JSON repro file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Campaign":
        """Rebuild a campaign from its JSON repro file."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _weighted_choice(rng: random.Random, weights: tuple[tuple[str, float], ...]) -> str:
    total = sum(w for _, w in weights)
    pick = rng.random() * total
    acc = 0.0
    for value, weight in weights:
        acc += weight
        if pick < acc:
            return value
    return weights[-1][0]


def generate_campaign(
    seed: int,
    workload: str,
    profile: ChaosProfile,
    n_machines: int,
) -> Campaign:
    """Deterministically generate one campaign.

    ``random.Random`` is seeded with a string key, which hashes via SHA-512
    (stable across processes and platforms, unlike object ``hash()``).
    """
    rng = random.Random(f"chaos:{seed}:{workload}:{profile.name}")
    n_events = rng.randint(profile.min_events, profile.max_events)
    crash_budget = profile.crash_cap(n_machines)
    events: list[ChaosEvent] = []
    for _ in range(n_events):
        kind = _weighted_choice(rng, profile.kind_weights)
        if (
            kind == FailureKind.MACHINE_CRASH.value
            and sum(1 for e in events if e.kind == kind) >= crash_budget
        ):
            kind = FailureKind.TASK_CRASH.value
        at = round(rng.uniform(0.02, 0.85), 4)
        machine_id: Optional[int] = None
        duration: Optional[float] = None
        if kind in (
            FailureKind.MACHINE_CRASH.value,
            FailureKind.MACHINE_QUARANTINE.value,
            FailureKind.CACHE_WORKER_LOSS.value,
        ):
            machine_id = rng.randrange(n_machines)
        if kind == FailureKind.MACHINE_QUARANTINE.value:
            # Storms always recover; a permanent quarantine would make
            # capacity-starved livelock a generation artifact, not a bug.
            duration = round(rng.uniform(5.0, 30.0), 3)
        events.append(
            ChaosEvent(
                kind=kind, at_fraction=at, machine_id=machine_id,
                duration=duration,
            )
        )
    if rng.random() < profile.app_error_probability:
        events.append(
            ChaosEvent(
                kind=FailureKind.APPLICATION_ERROR.value,
                at_fraction=round(rng.uniform(0.05, 0.6), 4),
            )
        )
    events.sort(key=lambda e: e.at_fraction)
    perturbations = Perturbations()
    if rng.random() < profile.perturbation_probability:
        perturbations = Perturbations(
            network_factor=rng.choice(NETWORK_FACTORS),
            cache_factor=rng.choice(CACHE_FACTORS),
        )
    return Campaign(
        seed=seed,
        workload=workload,
        profile=profile.name,
        events=events,
        perturbations=perturbations,
    )
