"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures: each isolates one Swift mechanism by
toggling a single policy knob on otherwise-identical workloads.  Like the
figure runners, each ablation decomposes into independent cells (see
:mod:`repro.experiments.cells`) executed through
:func:`repro.experiments.parallel.run_cells`, so ``--jobs N`` runs the
knob settings concurrently without changing any result.  The shuffle v2
recovery comparison at the end runs its two small, deterministic variants
in-process instead.
"""

from __future__ import annotations

import dataclasses
import statistics

from ..api import Runtime, RuntimeConfig
from ..sim.config import SimConfig
from ..sim.failures import FailureKind, FailurePlan, FailureSpec
from ..workloads import terasort
from .harness import ExperimentResult
from .parallel import Cell, run_cells

#: Module that hosts the picklable cell functions.
_CELLS = "repro.experiments.cells"


def partitioning_ablation(n_jobs: int = 150) -> ExperimentResult:
    """Scheduling-granularity ablation: Swift graphlets vs whole-job vs
    per-stage vs data-size bubbles, all else equal (in-memory shuffle,
    pre-launched executors)."""
    result = ExperimentResult(
        name="ablation_partitioning",
        notes=(
            "same executors/shuffle everywhere; only the unit of scheduling "
            "varies. With an ample memory budget, bubbles coincide with "
            "graphlets on these small jobs; whole-job gangs pay their cost "
            "in IdleRatio and latency rather than raw makespan."
        ),
    )
    partitioners = (
        ("graphlet (swift)", "swift"),
        ("whole job", "whole_job"),
        ("per stage", "per_stage"),
        ("bubble", "bubble"),
    )
    cells = [
        Cell(_CELLS, "partitioning_cell", {"partitioner": key, "n_jobs": n_jobs})
        for _, key in partitioners
    ]
    for (label, _), payload in zip(partitioners, run_cells(cells)):
        result.add(
            partitioning=label,
            makespan_s=payload["makespan_s"],
            mean_latency_s=payload["mean_latency_s"],
            mean_idle_ratio_pct=payload["mean_idle_ratio_pct"],
        )
    return result


def submission_order_ablation(query: int = 9) -> ExperimentResult:
    """Section III-A2's note: the conservative graphlet submission order
    delays M7/M8 (which *could* run alongside graphlet 2) to avoid J10
    idling.  Compare conservative vs eager on Q9."""
    result = ExperimentResult(
        name="ablation_submission_order",
        notes="conservative avoids executor idling; eager starts leaves earlier",
    )
    orders = ("conservative", "eager")
    cells = [
        Cell(_CELLS, "submission_order_cell", {"order": order, "query": query})
        for order in orders
    ]
    for order, payload in zip(orders, run_cells(cells)):
        result.add(
            submission=order,
            run_time_s=payload["run_time_s"],
            mean_idle_ratio_pct=payload["mean_idle_ratio_pct"],
        )
    return result


def heartbeat_interval_ablation(
    intervals: tuple[float, ...] = (1.0, 5.0, 15.0, 60.0),
    n_failures: int = 4,
) -> ExperimentResult:
    """Failure-detection sensitivity: machine-crash recovery latency as a
    function of the heartbeat interval (Section IV-A's 5/10/15s trade-off)."""
    [base] = run_cells([
        Cell(_CELLS, "q13_runtime_cell", {"policy": "swift", "scale": 1.0})
    ])
    result = ExperimentResult(
        name="ablation_heartbeat_interval",
        notes="machine crash at 30% of the job; detection waits for the heartbeat",
    )
    cells = [
        Cell(_CELLS, "heartbeat_cell", {"interval": interval, "reference": base})
        for interval in intervals
    ]
    for interval, run_time in zip(intervals, run_cells(cells)):
        result.add(
            heartbeat_s=interval,
            slowdown_pct=100 * (run_time / base - 1),
        )
    return result


def cache_memory_ablation(
    capacities_gb: tuple[float, ...] = (0.2, 0.5, 2.0, 8.0, 48.0),
) -> ExperimentResult:
    """Cache Worker memory pressure: shrink the per-machine cache until the
    LRU policy must spill, and measure the job-time impact (Section III-B's
    claim that chunked spill "would not hurt performance greatly")."""
    result = ExperimentResult(
        name="ablation_cache_memory",
        notes="large-shuffle jobs; smaller caches force LRU spill to disk",
    )
    cells = [
        Cell(_CELLS, "cache_capacity_cell", {"capacity_gb": capacity, "n_jobs": 4})
        for capacity in capacities_gb
    ]
    for capacity, payload in zip(capacities_gb, run_cells(cells)):
        result.add(
            cache_gb=capacity,
            mean_latency_s=payload["mean_latency_s"],
            spill_events=payload["spill_events"],
        )
    return result


def failure_rate_sweep(
    rates: tuple[float, ...] = (0.0, 0.2, 0.5, 0.8),
    n_jobs: int = 120,
    seed: int = 29,
) -> ExperimentResult:
    """How gracefully each recovery policy degrades as failures get more
    frequent (extends Fig. 15 into a sweep)."""
    [base] = run_cells([
        Cell(_CELLS, "trace_base_latency_cell",
             {"n_jobs": n_jobs, "mean_interarrival": 0.3})
    ])
    result = ExperimentResult(name="ablation_failure_rate_sweep")
    # (cell key, row label) — restart_policy() names itself "swift_restart".
    policies = (("swift", "swift"), ("restart", "swift_restart"))
    cells = [
        Cell(_CELLS, "trace_failure_cell",
             {"policy": policy, "n_jobs": n_jobs, "mean_interarrival": 0.3,
              "failure_rate": rate, "seed": seed, "reference": base})
        for rate in rates
        for policy, _ in policies
    ]
    slowdown_lists = run_cells(cells)
    for r, rate in enumerate(rates):
        row: dict[str, object] = {"failure_rate": rate}
        for p, (_, label) in enumerate(policies):
            slowdowns = slowdown_lists[r * len(policies) + p]
            row[f"{label}_slowdown_pct"] = statistics.mean(slowdowns)
        result.add(**row)
    return result


def _run_shuffle_loss(
    replication_factor: int, m: int, n: int, machine_id: int, at_fraction: float
) -> dict[str, float]:
    """One variant: baseline makespan, then makespan under a single
    injected Cache Worker loss.  All times are *simulated* seconds, so the
    measurement is deterministic and host-independent."""
    sim = SimConfig()
    sim.shuffle.replication_factor = replication_factor

    config = RuntimeConfig(n_machines=20, executors_per_machine=16, sim=sim)
    baseline_rt = Runtime(config)
    baseline_rt.submit(terasort.terasort_job(m, n))
    [baseline] = baseline_rt.run()
    assert baseline.completed
    baseline_makespan = baseline.metrics.finish_time

    plan = FailurePlan().add(
        FailureSpec(
            kind=FailureKind.CACHE_WORKER_LOSS,
            machine_id=machine_id,
            at_fraction=at_fraction,
        )
    )
    loss_rt = Runtime(dataclasses.replace(
        config, failure_plan=plan, reference_duration=baseline_makespan
    ))
    loss_rt.submit(terasort.terasort_job(m, n))
    [result] = loss_rt.run()
    assert result.completed
    log = loss_rt.inner.shuffle_recovery_log
    return {
        "baseline_makespan_s": baseline_makespan,
        "loss_makespan_s": result.metrics.finish_time,
        "recovery_s": result.metrics.finish_time - baseline_makespan,
        "reruns": sum(1 for r in log if r["action"] == "rerun"),
        "failovers": sum(1 for r in log if r["action"] == "failover"),
    }


def bench_shuffle_recovery(
    m: int = 128, n: int = 128, at_fraction: float = 0.55
) -> dict[str, object]:
    """Recovery time under Cache Worker loss: shuffle v2 vs v1.

    Both variants replay the same Terasort (its cross-unit edge is large
    enough to resolve to Remote Shuffle, so the data lives in Cache
    Workers) and lose the same Cache Worker at the same fraction of the
    failure-free makespan.  **v1** (``replication_factor=1``) must
    re-generate the lost shares through producer re-runs; **v2** (the
    default factor 2) fails over to surviving replicas.
    """
    machine_id = 0  # always a primary under the [:y] placement
    v1 = _run_shuffle_loss(1, m, n, machine_id, at_fraction)
    v2 = _run_shuffle_loss(2, m, n, machine_id, at_fraction)
    # The comparison is only meaningful if the injection really exercised
    # both paths: v1 re-ran producers, v2 served every share from replicas.
    assert v1["reruns"] > 0, "v1 run never hit the producer-rerun path"
    assert v2["reruns"] == 0 and v2["failovers"] > 0, (
        "v2 run did not fail over to replicas"
    )
    return {
        "job": f"terasort_{m}x{n}",
        "machine_lost": machine_id,
        "at_fraction": at_fraction,
        "baseline_makespan_s": v2["baseline_makespan_s"],
        "v1_makespan_s": v1["loss_makespan_s"],
        "v2_makespan_s": v2["loss_makespan_s"],
        "v1_recovery_s": v1["recovery_s"],
        "v2_recovery_s": v2["recovery_s"],
        "v1_reruns": v1["reruns"],
        "v2_reruns": v2["reruns"],
        "v2_failovers": v2["failovers"],
    }
