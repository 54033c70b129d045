"""Shared experiment harness: cluster construction, replays, reporting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.dag import Job
from ..core.policies import ExecutionPolicy
from ..core.runtime import JobResult, SwiftRuntime
from ..obs.tracer import Tracer
from ..sim.cluster import Cluster
from ..sim.config import SimConfig
from ..sim.failures import FailurePlan


@dataclass
class ExperimentResult:
    """One experiment's output: rows of named values plus paper targets."""

    name: str
    rows: list[dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add(self, **values: object) -> None:
        """Append one row of named values."""
        self.rows.append(values)

    def column(self, key: str) -> list[object]:
        """All values of one column, in row order."""
        return [row[key] for row in self.rows]

    def to_json(self) -> str:
        """Serialize name, rows, and notes as a JSON document."""
        return json.dumps(
            {"name": self.name, "notes": self.notes, "rows": self.rows},
            indent=2,
            default=str,
        )

    def save(self, path: str) -> None:
        """Write the :meth:`to_json` document to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def format_table(self) -> str:
        """Render the rows as an aligned text table."""
        if not self.rows:
            return f"[{self.name}] (no rows)"
        keys = list(self.rows[0].keys())
        widths = {
            k: max(len(k), *(len(_fmt(row.get(k))) for row in self.rows)) for k in keys
        }
        header = "  ".join(k.ljust(widths[k]) for k in keys)
        lines = [f"[{self.name}]", header, "  ".join("-" * widths[k] for k in keys)]
        for row in self.rows:
            lines.append("  ".join(_fmt(row.get(k)).ljust(widths[k]) for k in keys))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def build_cluster(
    n_machines: int = 100,
    executors_per_machine: int = 32,
    config: Optional[SimConfig] = None,
) -> Cluster:
    """A fresh cluster matching the paper's 100-node testbed by default."""
    return Cluster.build(n_machines, executors_per_machine, config=config)


def run_jobs(
    policy: ExecutionPolicy,
    jobs: Sequence[Job],
    n_machines: int = 100,
    executors_per_machine: int = 32,
    config: Optional[SimConfig] = None,
    failure_plan: Optional[FailurePlan] = None,
    reference_duration: float = 100.0,
    tracer: Optional[Tracer] = None,
) -> tuple[list[JobResult], SwiftRuntime]:
    """Execute ``jobs`` under ``policy`` on a fresh cluster.

    Returns the per-job results and the runtime (for admin stats and other
    cross-job introspection).  ``tracer`` threads an observability hook
    through the run (see :mod:`repro.obs`); utilization series come from a
    :class:`~repro.obs.RecordingTracer`'s ``task_intervals()``.
    """
    cluster = build_cluster(n_machines, executors_per_machine, config)
    runtime = SwiftRuntime(
        cluster,
        policy,
        config=config,
        failure_plan=failure_plan,
        reference_duration=reference_duration,
        tracer=tracer,
    )
    runtime.submit_all(list(jobs))
    results = runtime.run()
    return results, runtime


def run_single(
    policy: ExecutionPolicy,
    job: Job,
    n_machines: int = 100,
    executors_per_machine: int = 32,
    config: Optional[SimConfig] = None,
    failure_plan: Optional[FailurePlan] = None,
    reference_duration: float = 100.0,
    tracer: Optional[Tracer] = None,
) -> JobResult:
    """Execute one job on a fresh cluster and return its result."""
    results, _ = run_jobs(
        policy,
        [job],
        n_machines,
        executors_per_machine,
        config,
        failure_plan,
        reference_duration,
        tracer,
    )
    if not results:
        raise RuntimeError(f"job {job.job_id} produced no result")
    return results[0]


def makespan(results: Sequence[JobResult]) -> float:
    """Completion time of the last job in a replay."""
    if not results:
        raise ValueError("no results")
    return max(r.metrics.finish_time for r in results)


def mean_latency(results: Sequence[JobResult]) -> float:
    """Average end-to-end job latency of a replay."""
    if not results:
        raise ValueError("no results")
    return sum(r.metrics.latency for r in results) / len(results)
