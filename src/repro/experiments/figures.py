"""One runner per table/figure of the paper's evaluation (Section V).

Each ``figNN_*`` / ``table1_*`` function regenerates the corresponding
result on the simulator and returns an
:class:`~repro.experiments.harness.ExperimentResult` whose rows mirror the
paper's rows/series.  A published number that a table prints as a column
is defined once, next to the runner that prints it; every other claim is
stated once, as its report section's ``paper_claim`` in
:mod:`repro.experiments.reporting`.

Every experiment is decomposed into independent cells (one simulation per
policy/config/seed combination, defined in :mod:`repro.experiments.cells`)
and executed through :func:`repro.experiments.parallel.run_cells`, so
``--jobs N`` fans the cells across worker processes.  The decomposition is
fixed per experiment — never a function of the worker count — which keeps
parallel results byte-identical to serial ones.
"""

from __future__ import annotations

import random
import statistics
from typing import Sequence

from ..core.dag import Job
from ..core.metrics import four_quartile_summary, normalized_cdf
from ..workloads import terasort, tpch, traces
from .harness import ExperimentResult
from .parallel import Cell, run_cells

#: Module that hosts the picklable cell functions.
_CELLS = "repro.experiments.cells"

#: Fig. 8 splits its runtime sample into this many cells.  A spec constant
#: (not the worker count!) so the merged multiset of runtimes is identical
#: for any ``--jobs`` value.
FIG8_RUNTIME_CHUNKS = 8

# ----------------------------------------------------------------------
# Fig. 3 — IdleRatio of four production clusters under gang scheduling
# ----------------------------------------------------------------------

#: Fig. 3's published IdleRatio (%) of clusters #1-#4.
FIG3_PAPER_PCT = (3.81, 13.15, 14.45, 14.92)


def fig3_idle_ratio(n_jobs: int = 150, n_machines: int = 100) -> ExperimentResult:
    """Mean task IdleRatio per cluster profile under whole-job gang
    scheduling (the four bars of Fig. 3)."""
    result = ExperimentResult(name="fig3_idle_ratio")
    cells = [
        Cell(_CELLS, "fig3_profile_cell",
             {"profile": profile, "n_jobs": n_jobs, "n_machines": n_machines})
        for profile in range(4)
    ]
    for profile, pct in enumerate(run_cells(cells)):
        result.add(
            cluster=f"#{profile + 1}",
            idle_ratio_pct=pct,
            paper_pct=FIG3_PAPER_PCT[profile],
        )
    return result


# ----------------------------------------------------------------------
# Fig. 8 — trace characteristics
# ----------------------------------------------------------------------

def fig8_trace_characteristics(n_jobs: int = 2000) -> ExperimentResult:
    """Runtime and size distributions of the generated trace (Fig. 8)."""
    cells = [Cell(_CELLS, "fig8_stats_cell", {"n_jobs": n_jobs})] + [
        Cell(_CELLS, "fig8_runtime_cell",
             {"n_jobs": n_jobs, "chunk": chunk, "n_chunks": FIG8_RUNTIME_CHUNKS})
        for chunk in range(FIG8_RUNTIME_CHUNKS)
    ]
    payloads = run_cells(cells)
    stats = payloads[0]
    runtimes = [t for chunk in payloads[1:] for t in chunk]
    runtimes.sort()
    frac_under_120 = sum(1 for r in runtimes if r <= 120.0) / len(runtimes)
    result = ExperimentResult(name="fig8_trace_characteristics")
    result.add(metric="avg_runtime_s", measured=statistics.mean(runtimes), paper=30.0)
    result.add(metric="frac_runtime_le_120s", measured=frac_under_120, paper=0.90)
    result.add(metric="frac_tasks_le_80", measured=stats["frac_tasks_le_80"], paper=0.80)
    result.add(metric="frac_stages_le_4", measured=stats["frac_stages_le_4"], paper=0.80)
    return result


# ----------------------------------------------------------------------
# Fig. 9(a) — TPC-H, Swift vs Spark
# ----------------------------------------------------------------------

def fig9a_tpch(
    queries: Sequence[int] = tpch.ALL_QUERIES, scale: float = 1.0
) -> ExperimentResult:
    """Per-query execution time of Swift and Spark on TPC-H (Fig. 9(a))."""
    result = ExperimentResult(name="fig9a_tpch")
    cells = [
        Cell(_CELLS, "tpch_query_cell", {"query": query, "scale": scale})
        for query in queries
    ]
    total_swift = total_spark = 0.0
    for query, payload in zip(queries, run_cells(cells)):
        swift_t, spark_t = payload["swift_s"], payload["spark_s"]
        total_swift += swift_t
        total_spark += spark_t
        result.add(query=f"Q{query}", swift_s=swift_t, spark_s=spark_t,
                   speedup=spark_t / swift_t)
    result.add(query="TOTAL", swift_s=total_swift, spark_s=total_spark,
               speedup=total_spark / total_swift)
    return result


def fig9b_q9_phases(scale: float = 1.0) -> ExperimentResult:
    """4-phase breakdown of Q9's critical stages (Fig. 9(b))."""
    result = ExperimentResult(name="fig9b_q9_phases")
    swift_phases, spark_phases = run_cells([
        Cell(_CELLS, "q9_phase_cell", {"policy": "swift", "scale": scale}),
        Cell(_CELLS, "q9_phase_cell", {"policy": "spark", "scale": scale}),
    ])
    for stage in tpch.Q9_CRITICAL_STAGES:
        sw, sp = swift_phases[stage], spark_phases[stage]
        result.add(
            stage=stage,
            swift_L=sw["L"], swift_SR=sw["SR"],
            swift_P=sw["P"], swift_SW=sw["SW"],
            spark_L=sp["L"], spark_SR=sp["SR"],
            spark_P=sp["P"], spark_SW=sp["SW"],
        )
    return result


# ----------------------------------------------------------------------
# Table I — Terasort
# ----------------------------------------------------------------------

#: Table I's published Swift-over-Spark speedup per M x N size.
TABLE1_PAPER_SPEEDUP = {(250, 250): 3.07, (500, 500): 3.96,
                        (1000, 1000): 7.06, (1500, 1500): 14.18}


def table1_terasort(
    sizes: Sequence[tuple[int, int]] = terasort.TABLE1_SIZES
) -> ExperimentResult:
    """Terasort M x N sweep, Spark vs Swift (Table I)."""
    result = ExperimentResult(name="table1_terasort")
    cells = [Cell(_CELLS, "terasort_cell", {"m": m, "n": n}) for m, n in sizes]
    for (m, n), payload in zip(sizes, run_cells(cells)):
        swift_t, spark_t = payload["swift_s"], payload["spark_s"]
        result.add(
            job_size=f"{m}x{n}", spark_s=spark_t, swift_s=swift_t,
            speedup=spark_t / swift_t,
            paper_speedup=TABLE1_PAPER_SPEEDUP.get((m, n), float("nan")),
        )
    return result


# ----------------------------------------------------------------------
# Figs. 10 & 11 — trace replay against JetScope and Bubble Execution
# ----------------------------------------------------------------------

_REPLAY_SYSTEMS = ("swift", "bubble", "jetscope")


def _replay_three_systems(
    n_jobs: int, mean_interarrival: float
) -> dict[str, dict[str, object]]:
    """Replay payloads per system; one cell each, so ``--jobs 3`` runs the
    three systems concurrently (the memory cache dedups repeat calls across
    fig10/fig11 within one process)."""
    cells = [
        Cell(_CELLS, "trace_replay_cell",
             {"policy": name, "n_jobs": n_jobs,
              "mean_interarrival": mean_interarrival})
        for name in _REPLAY_SYSTEMS
    ]
    return dict(zip(_REPLAY_SYSTEMS, run_cells(cells)))


def fig10_makespans(
    n_jobs: int = 400, mean_interarrival: float = 0.08
) -> dict[str, float]:
    """Makespans of the three systems (the headline Fig. 10 numbers)."""
    replay = _replay_three_systems(n_jobs, mean_interarrival)
    return {name: payload["makespan"] for name, payload in replay.items()}


def fig11_latency_cdf(
    n_jobs: int = 400, mean_interarrival: float = 0.08
) -> ExperimentResult:
    """CDF of job latency normalized to Swift (Fig. 11)."""
    replay = _replay_three_systems(n_jobs, mean_interarrival)
    swift_lat = replay["swift"]["latencies"]
    result = ExperimentResult(name="fig11_latency_cdf")
    for name in ("bubble", "jetscope"):
        lat = replay[name]["latencies"]
        ordered = sorted(swift_lat)
        cdf = normalized_cdf(
            [lat[j] for j in ordered], [swift_lat[j] for j in ordered]
        )
        ratios = [r for r, _ in cdf]
        frac_ge_2 = sum(1 for r in ratios if r >= 2.0) / len(ratios)
        result.add(
            system=name,
            median_ratio=ratios[len(ratios) // 2],
            p90_ratio=ratios[int(len(ratios) * 0.9)],
            frac_ge_2x=frac_ge_2,
        )
    return result


# ----------------------------------------------------------------------
# Fig. 12 — shuffle-scheme ablation by shuffle size class
# ----------------------------------------------------------------------

#: Fig. 12's published job times per class, normalized to Direct = 1.
FIG12_PAPER = {
    "small": {"direct": 1.00, "local": 1.04, "remote": 1.03},
    "medium": {"direct": 1.25, "local": 1.038, "remote": 1.00},
    "large": {"direct": 2.083, "local": 1.00, "remote": 1.479},
}


def fig12_shuffle_ablation(
    n_jobs: int = 10, n_machines: int = 200, executors_per_machine: int = 16
) -> ExperimentResult:
    """Normalized average job time per (size class, shuffle scheme).

    The paper replays each class with Direct, Local, and Remote Shuffle on
    the 2,000-node cluster; times are normalized to Direct = 1 per class.
    """
    result = ExperimentResult(name="fig12_shuffle_ablation")
    categories = ("small", "medium", "large")
    schemes = ("direct", "local", "remote")
    cells = [
        Cell(_CELLS, "shuffle_scheme_cell",
             {"category": category, "scheme": scheme, "n_jobs": n_jobs,
              "n_machines": n_machines,
              "executors_per_machine": executors_per_machine})
        for category in categories
        for scheme in schemes
    ]
    latencies = run_cells(cells)
    for c, category in enumerate(categories):
        times = dict(zip(schemes, latencies[c * len(schemes):(c + 1) * len(schemes)]))
        base = times["direct"]
        paper = FIG12_PAPER[category]
        result.add(
            shuffle_class=category,
            direct=times["direct"] / base,
            local=times["local"] / base,
            remote=times["remote"] / base,
            paper_direct=paper["direct"],
            paper_local=paper["local"],
            paper_remote=paper["remote"],
        )
    return result


def adaptive_shuffle_envelope(
    n_jobs: int = 8, n_machines: int = 200, executors_per_machine: int = 16
) -> ExperimentResult:
    """Ablation: adaptive selection tracks the best fixed scheme per class."""
    result = ExperimentResult(name="adaptive_shuffle_envelope")
    categories = ("small", "medium", "large")
    schemes = ("direct", "local", "remote", "adaptive")
    cells = [
        Cell(_CELLS, "shuffle_scheme_cell",
             {"category": category, "scheme": scheme, "n_jobs": n_jobs,
              "n_machines": n_machines,
              "executors_per_machine": executors_per_machine})
        for category in categories
        for scheme in schemes
    ]
    latencies = run_cells(cells)
    for c, category in enumerate(categories):
        times = dict(zip(schemes, latencies[c * len(schemes):(c + 1) * len(schemes)]))
        fixed_best = min(times["direct"], times["local"], times["remote"])
        result.add(
            shuffle_class=category,
            adaptive=times["adaptive"],
            best_fixed=fixed_best,
            overhead_pct=100.0 * (times["adaptive"] / fixed_best - 1.0),
        )
    return result


# ----------------------------------------------------------------------
# Fig. 13 — Q13 job details
# ----------------------------------------------------------------------

def fig13_q13_details() -> ExperimentResult:
    """The Q13 stage table (Fig. 13) plus our DAG's realised structure."""
    result = ExperimentResult(name="fig13_q13_details")
    dag = tpch.query_dag(13)
    ours = {s.name: s for s in dag.stages.values()}
    for row in tpch.Q13_DETAILS:
        stage = str(row["stage"])
        built = ours.get(stage)
        result.add(
            stage=stage,
            paper_tasks=row["tasks"],
            built_tasks=built.task_count if built else 0,
            input_records_per_task=row["input_records_per_task"],
            input_size_per_task=row["input_size_per_task"],
        )
    return result


# ----------------------------------------------------------------------
# Figs. 14 & 15 — fault tolerance
# ----------------------------------------------------------------------

#: Fig. 14's injection schedule: (normalized time, target stage of Q13).
FIG14_INJECTIONS: tuple[tuple[float, str], ...] = (
    (0.2, "M2"),
    (0.4, "J3"),
    (0.6, "R4"),
    (0.8, "R5"),
    (0.98, "R6"),
)


def fig14_fault_injection(scale: float = 1.0) -> ExperimentResult:
    """Single-failure injections into Q13, Swift vs job restart (Fig. 14).

    Two-phase fan-out: the failure-free baseline runs first (its runtime
    parameterizes every injection), then all ten injected runs go wide.
    """
    [baseline] = run_cells([
        Cell(_CELLS, "q13_runtime_cell", {"policy": "swift", "scale": scale})
    ])
    result = ExperimentResult(name="fig14_fault_injection")
    cells = [
        Cell(_CELLS, "fig14_injection_cell",
             {"policy": policy, "stage": stage, "fraction": fraction,
              "scale": scale, "reference": baseline})
        for fraction, stage in FIG14_INJECTIONS
        for policy in ("swift", "restart")
    ]
    times = run_cells(cells)
    for i, (fraction, stage) in enumerate(FIG14_INJECTIONS):
        swift_t, restart_t = times[2 * i], times[2 * i + 1]
        result.add(
            inject_at=round(100 * fraction),
            stage=stage,
            swift_slowdown_pct=100.0 * (swift_t / baseline - 1.0),
            restart_slowdown_pct=100.0 * (restart_t / baseline - 1.0),
        )
    return result


def fig15_trace_failures(
    n_jobs: int = 200, failure_rate: float = 0.9, seed: int = 17
) -> ExperimentResult:
    """Trace replay with trace-calibrated failures (Fig. 15).

    Failures strike at a Weibull-sampled fraction of each job's own
    runtime (Section V-F: ~50% of failures within 30s, 90% within 200s);
    nearly every job suffers one, which is what makes whole-job restart
    average a ~45% slowdown in the paper.
    """
    [base] = run_cells([
        Cell(_CELLS, "trace_base_latency_cell",
             {"n_jobs": n_jobs, "mean_interarrival": 0.3})
    ])
    result = ExperimentResult(name="fig15_trace_failures")
    cells = [
        Cell(_CELLS, "trace_failure_cell",
             {"policy": policy, "n_jobs": n_jobs, "mean_interarrival": 0.3,
              "failure_rate": failure_rate, "seed": seed, "reference": base})
        for policy in ("swift", "restart")
    ]
    # Row labels match the policies' own names (restart_policy() is
    # "swift_restart"), exactly as the pre-cell implementation reported.
    for label, slowdowns in zip(("swift", "swift_restart"), run_cells(cells)):
        summary = four_quartile_summary(slowdowns)
        result.add(
            policy=label,
            mean_slowdown_pct=summary["iq_mean"],
            median_slowdown_pct=summary["median"],
            q3_slowdown_pct=summary["q3"],
        )
    return result


# ----------------------------------------------------------------------
# Fig. 16 — scalability
# ----------------------------------------------------------------------

def scalability_workload(
    n_jobs: int = 1200, tasks_per_stage: int = 120, work_seconds: float = 6.0,
    seed: int = 23,
) -> list[Job]:
    """A wide, short-task batch with parallelism far beyond 140k executors,
    matching "the workload is generated according to the production traces"
    (many concurrent small jobs)."""
    rng = random.Random(seed)
    config = traces.TraceConfig(n_jobs=n_jobs, blocking_probability=0.4, seed=seed)
    jobs: list[Job] = []
    for i in range(n_jobs):
        job = traces.generate_job(
            rng, f"scale_{i:05d}", config, submit_time=0.0,
            n_stages=rng.choice((1, 2, 2, 3)),
        )
        for stage in job.dag.stages.values():
            total_out = stage.output_bytes_per_task * stage.task_count
            total_scan = stage.scan_bytes_per_task * stage.task_count
            stage.task_count = max(8, int(tasks_per_stage * rng.uniform(0.5, 1.5)))
            # Preserve per-stage data volumes when widening the stage.
            stage.output_bytes_per_task = total_out / stage.task_count
            stage.scan_bytes_per_task = total_scan / stage.task_count
            stage.work_seconds_per_task = work_seconds * rng.uniform(0.5, 1.5)
        jobs.append(job)
    return jobs


def fig16_scalability(
    executor_counts: Sequence[int] = (10_000, 20_000, 40_000, 80_000, 140_000),
    n_machines: int = 2000,
    n_jobs: int = 2500,
    tasks_per_stage: int = 120,
    work_seconds: float = 4.0,
) -> ExperimentResult:
    """Strong scaling: same workload, growing executor pool (Fig. 16).

    Strong scaling to 14x requires the batch's total work to dwarf any
    single job's critical path (the paper replays a large production
    workload), hence the default of thousands of short wide jobs.
    """
    result = ExperimentResult(name="fig16_scalability")
    cells = [
        Cell(_CELLS, "fig16_count_cell",
             {"count": count, "n_machines": n_machines, "n_jobs": n_jobs,
              "tasks_per_stage": tasks_per_stage, "work_seconds": work_seconds})
        for count in executor_counts
    ]
    for count, span in zip(executor_counts, run_cells(cells)):
        result.add(executors=count, makespan_s=span)
    base = float(result.rows[0]["makespan_s"])  # type: ignore[arg-type]
    base_count = executor_counts[0]
    for row in result.rows:
        row["speedup"] = base / float(row["makespan_s"])  # type: ignore[arg-type]
        row["ideal"] = float(row["executors"]) / base_count  # type: ignore[arg-type]
    return result
