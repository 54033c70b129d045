"""Deterministic chaos engine: randomized multi-failure campaigns.

Generate seeded campaigns of composed failures, inject them into any
workload through the event kernel, check a library of invariants after
every run, and shrink violations to minimal replayable repro files.

Quick start::

    from repro.chaos import ChaosEngine

    engine = ChaosEngine(workload="terasort", profile="standard")
    report = engine.sweep(range(20))
    assert report.ok, report.format_summary()
"""

from .campaign import (
    Campaign,
    ChaosProfile,
    PROFILES,
    Perturbations,
    generate_campaign,
)
from .engine import (
    CampaignResult,
    ChaosEngine,
    ChaosReport,
    WORKLOADS,
    WorkloadSpec,
)
from .invariants import Violation, check_all
from .shrink import shrink_campaign

__all__ = [
    "Campaign",
    "CampaignResult",
    "ChaosEngine",
    "ChaosProfile",
    "ChaosReport",
    "PROFILES",
    "Perturbations",
    "Violation",
    "WORKLOADS",
    "WorkloadSpec",
    "check_all",
    "generate_campaign",
    "shrink_campaign",
]
