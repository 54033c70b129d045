"""The chaos engine: generate -> inject -> check -> shrink -> report.

One :class:`ChaosEngine` is bound to a workload and a hostility profile.
Per campaign it (1) obtains the failure-free baseline for the campaign's
perturbations (cached per perturbation level), (2) replays the workload
with the campaign's failure plan injected through the event kernel under a
simulated-time watchdog, (3) runs the invariant library, and (4) on a
violation shrinks the campaign to a minimal repro and emits a replayable
JSON file plus ``repro.obs`` failure/recovery spans.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..core.metrics import makespan
from ..core.runtime import JobResult
from ..obs.exporters import write_jsonl
from ..obs.records import Category
from ..obs.tracer import RecordingTracer
from ..sim.config import SimConfig
from ..workloads import terasort, tpch
from ..workloads.traces import TraceConfig, generate_trace
from .campaign import (
    Campaign,
    ChaosProfile,
    PROFILES,
    Perturbations,
    generate_campaign,
)
from .invariants import Violation, check_all
from .shrink import shrink_campaign

if TYPE_CHECKING:
    from ..api import Runtime

#: Watchdog: a run must terminate within this multiple of the failure-free
#: makespan (plus slack for backoff chains and quarantine durations).
WATCHDOG_FACTOR = 8.0
WATCHDOG_SLACK = 180.0


@dataclass(frozen=True)
class WorkloadSpec:
    """A chaos-able workload: fresh jobs on a fixed cluster shape."""

    name: str
    n_machines: int
    executors_per_machine: int
    build: Callable[[], list]


def _terasort_jobs() -> list:
    return [terasort.terasort_job(24, 24)]


def _tpch_q13_jobs() -> list:
    return [tpch.query_job(13, scale=0.1)]


def _trace_jobs() -> list:
    config = TraceConfig(
        n_jobs=6, mean_interarrival=5.0, max_stage_tasks=48, seed=23
    )
    return generate_trace(config)


WORKLOADS: dict[str, WorkloadSpec] = {
    "terasort": WorkloadSpec("terasort", 8, 8, _terasort_jobs),
    "tpch-q13": WorkloadSpec("tpch-q13", 100, 32, _tpch_q13_jobs),
    "trace": WorkloadSpec("trace", 16, 16, _trace_jobs),
}


@dataclass
class _Baseline:
    """Failure-free reference run for one perturbation level."""

    results: list[JobResult]
    makespan: float
    reference: dict[str, float]


@dataclass
class CampaignResult:
    """Outcome of one campaign run (plus shrink artifacts on failure)."""

    campaign: Campaign
    violations: list[Violation]
    makespan: float
    baseline_makespan: float
    shrunk: Optional[Campaign] = None
    repro_path: Optional[str] = None
    trace_path: Optional[str] = None

    @property
    def passed(self) -> bool:
        """True when every invariant held."""
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.campaign.seed,
            "workload": self.campaign.workload,
            "profile": self.campaign.profile,
            "n_events": len(self.campaign.events),
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "makespan": self.makespan,
            "baseline_makespan": self.baseline_makespan,
            "shrunk": None if self.shrunk is None else self.shrunk.to_dict(),
            "repro_path": self.repro_path,
            "trace_path": self.trace_path,
        }


@dataclass
class ChaosReport:
    """Aggregate result of a campaign sweep (the ``repro chaos`` output)."""

    workload: str
    profile: str
    runs: int
    passed: int
    failed: int
    campaigns: list[dict[str, Any]] = field(default_factory=list)
    repro_files: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the whole sweep passed."""
        return self.failed == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "profile": self.profile,
            "runs": self.runs,
            "passed": self.passed,
            "failed": self.failed,
            "campaigns": self.campaigns,
            "repro_files": self.repro_files,
        }

    def format_summary(self) -> str:
        """Human-readable sweep summary."""
        lines = [
            f"chaos sweep: workload={self.workload} profile={self.profile} "
            f"runs={self.runs} passed={self.passed} failed={self.failed}"
        ]
        for entry in self.campaigns:
            if entry["passed"]:
                continue
            lines.append(
                f"  seed {entry['seed']}: {len(entry['violations'])} violation(s)"
            )
            for violation in entry["violations"][:4]:
                lines.append(
                    f"    [{violation['invariant']}] {violation['message']}"
                )
            if entry.get("repro_path"):
                lines.append(f"    repro: {entry['repro_path']}")
        return "\n".join(lines)


class ChaosEngine:
    """Deterministic chaos campaigns against one workload."""

    def __init__(
        self,
        workload: str = "terasort",
        profile: "str | ChaosProfile" = "standard",
        out_dir: Optional[str] = None,
        audit: bool = False,
    ) -> None:
        spec = WORKLOADS.get(workload)
        if spec is None:
            raise ValueError(
                f"unknown workload {workload!r}; choose from "
                f"{sorted(WORKLOADS)}"
            )
        self.spec = spec
        if isinstance(profile, str):
            if profile not in PROFILES:
                raise ValueError(
                    f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
                )
            profile = PROFILES[profile]
        self.profile = profile
        self.out_dir = out_dir
        #: Wire a resource-accounting ledger through every campaign run and
        #: surface divergences via the ``resource-conservation`` invariant.
        self.audit = bool(audit)
        self._baselines: dict[tuple[float, float], _Baseline] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _runtime(
        self,
        perturbations: Perturbations,
        seed: int,
        tracer: Optional[RecordingTracer] = None,
        **fields: Any,
    ) -> "Runtime":
        """A fresh runtime on the workload's cluster, calibrated by the
        perturbed config; ``fields`` fill the rest of its RuntimeConfig."""
        # Imported here: ``repro.api`` imports this package.
        from ..api import Runtime, RuntimeConfig

        sim = perturbations.apply(SimConfig())
        sim.seed = seed
        config = RuntimeConfig(
            n_machines=self.spec.n_machines,
            executors_per_machine=self.spec.executors_per_machine,
            sim=sim,
            **fields,
        )
        return Runtime(config, tracer=tracer)

    def baseline(self, perturbations: Perturbations) -> _Baseline:
        """Failure-free reference run, cached per perturbation level."""
        key = perturbations.key()
        cached = self._baselines.get(key)
        if cached is not None:
            return cached
        runtime = self._runtime(perturbations, seed=0)
        runtime.submit(self.spec.build())
        results = runtime.run()
        if not results or any(not r.completed for r in results):
            raise RuntimeError(
                f"failure-free baseline of {self.spec.name} did not complete"
            )
        reference = {
            r.job_id: max(r.metrics.latency, 1.0) for r in results
        }
        info = _Baseline(
            results=results, makespan=makespan(results), reference=reference
        )
        self._baselines[key] = info
        return info

    def run_campaign(
        self, campaign: Campaign, tracer: Optional[RecordingTracer] = None
    ) -> CampaignResult:
        """Inject one campaign and check every invariant."""
        base = self.baseline(campaign.perturbations)
        jobs = self.spec.build()
        runtime = self._runtime(
            campaign.perturbations,
            seed=campaign.seed,
            tracer=tracer,
            failure_plan=campaign.to_failure_plan(),
            reference_duration=dict(base.reference),
            # Non-strict so the campaign runs to completion and *all*
            # accounting divergences reach the invariant check.
            audit=self.audit,
            audit_strict=False,
        )
        runtime.submit(jobs)
        deadline = base.makespan * WATCHDOG_FACTOR + WATCHDOG_SLACK
        results = runtime.run(until=deadline)
        violations = check_all(
            campaign,
            runtime.inner,
            results,
            base.results,
            [job.job_id for job in jobs],
        )
        runtime.inner.sim.clear_pending()
        return CampaignResult(
            campaign=campaign,
            violations=violations,
            makespan=makespan(results) if results else runtime.inner.sim.now,
            baseline_makespan=base.makespan,
        )

    # ------------------------------------------------------------------
    # Seeds, shrinking, repro files
    # ------------------------------------------------------------------
    def generate(self, seed: int) -> Campaign:
        """The campaign deterministically derived from ``seed``."""
        return generate_campaign(
            seed, self.spec.name, self.profile, self.spec.n_machines
        )

    def _still_fails(self, campaign: Campaign) -> bool:
        return not self.run_campaign(campaign).passed

    def shrink(self, campaign: Campaign, max_runs: int = 120) -> Campaign:
        """Minimize a failing campaign (see :mod:`repro.chaos.shrink`)."""
        return shrink_campaign(campaign, self._still_fails, max_runs=max_runs)

    def _emit_repro(self, result: CampaignResult) -> None:
        """Write the shrunk campaign's JSON repro + obs failure spans."""
        if self.out_dir is None or result.shrunk is None:
            return
        os.makedirs(self.out_dir, exist_ok=True)
        stem = f"chaos_repro_{result.campaign.workload}_seed{result.campaign.seed}"
        repro_path = os.path.join(self.out_dir, f"{stem}.json")
        result.shrunk.save(repro_path)
        result.repro_path = repro_path
        # Replay the minimal campaign once more with tracing on, keeping
        # only the failure/recovery spans (the debugging trail).
        tracer = RecordingTracer()
        self.run_campaign(result.shrunk, tracer=tracer)
        spans = [
            record
            for record in tracer.records
            if record.cat in (Category.FAILURE, Category.RECOVERY)
        ]
        trace_path = os.path.join(self.out_dir, f"{stem}_obs.jsonl")
        write_jsonl(spans, trace_path)
        result.trace_path = trace_path

    def run_seed(self, seed: int, shrink: bool = True) -> CampaignResult:
        """Generate, run, and (on violation) shrink one seed's campaign."""
        campaign = self.generate(seed)
        result = self.run_campaign(campaign)
        if not result.passed and shrink and campaign.events:
            try:
                result.shrunk = self.shrink(campaign)
            except ValueError:
                # Flaky boundary: the re-run passed.  Keep the original
                # violation report; the unshrunk campaign is the repro.
                result.shrunk = campaign
            self._emit_repro(result)
        return result

    def replay(self, path: str) -> CampaignResult:
        """Re-run a campaign from its JSON repro file."""
        return self.run_campaign(Campaign.load(path))

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        seeds: "list[int] | range",
        jobs: int = 1,
        shrink: bool = True,
    ) -> ChaosReport:
        """Run many seeds; fan out over the parallel cell runner if asked.

        ``jobs > 1`` dispatches campaigns through
        :func:`repro.experiments.parallel.run_cells` (process-pool
        fan-out); ``jobs == 1`` stays in-process, which is what tests that
        monkeypatch runtime internals rely on.
        """
        seed_list = list(seeds)
        if jobs > 1:
            from ..experiments.parallel import Cell, run_cells

            cells = [
                Cell(
                    "repro.experiments.cells",
                    "chaos_campaign_cell",
                    {
                        "seed": seed,
                        "workload": self.spec.name,
                        "profile": self.profile.name,
                        "shrink": shrink,
                        "out_dir": self.out_dir,
                        "audit": self.audit,
                    },
                )
                for seed in seed_list
            ]
            entries = run_cells(cells, jobs=jobs)
        else:
            entries = [
                self.run_seed(seed, shrink=shrink).to_dict() for seed in seed_list
            ]
        passed = sum(1 for e in entries if e["passed"])
        report = ChaosReport(
            workload=self.spec.name,
            profile=self.profile.name,
            runs=len(entries),
            passed=passed,
            failed=len(entries) - passed,
            campaigns=entries,
            repro_files=[
                e["repro_path"] for e in entries if e.get("repro_path")
            ],
        )
        return report
