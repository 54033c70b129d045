"""Module-level cell functions behind the parallel experiment harness.

Each function here is one independent *cell* of a paper experiment: it
regenerates its own workload from the seeds encoded in its keyword
arguments, runs the simulation, and returns a small JSON-safe payload.
``figures``/``ablations`` build :class:`~repro.experiments.parallel.Cell`
specs naming these functions by string, so the figure modules never import
this one (no cycle) and the specs pickle cleanly into worker processes.

Everything a cell needs must arrive through its kwargs as JSON primitives;
policies, shuffle schemes, and partitioners are therefore resolved by name
here rather than passed as objects.
"""

from __future__ import annotations

import random
import statistics

from ..api import Runtime, RuntimeConfig
from ..baselines import bubble_policy, jetscope_policy, restart_policy, spark_policy
from ..core.dag import Job
from ..core.metrics import four_quartile_summary, makespan, mean_latency
from ..core.partition import PARTITIONERS
from ..core.policies import ExecutionPolicy, SubmissionOrder, swift_policy
from ..core.runtime import JobResult
from ..core.shuffle import ShuffleScheme
from ..obs.tracer import RecordingTracer
from ..sim.config import SimConfig
from ..sim.failures import FailureKind, FailurePlan, FailureSpec, sample_trace_failures
from ..workloads import terasort, tpch, traces

#: Policy factories by name; cells receive the name, not the object.
_POLICIES = {
    "swift": swift_policy,
    "spark": spark_policy,
    "bubble": bubble_policy,
    "jetscope": jetscope_policy,
    "restart": restart_policy,
}


def _policy(name: str) -> ExecutionPolicy:
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; known: {sorted(_POLICIES)}")


def _run(
    config: RuntimeConfig, workload: Job | list[Job], tracer: RecordingTracer | None = None
) -> list[JobResult]:
    """Run ``workload`` on a fresh :class:`Runtime` built from ``config``."""
    runtime = Runtime(config, tracer=tracer)
    runtime.submit(workload)
    return runtime.run()


# ----------------------------------------------------------------------
# Fig. 3 / Fig. 8
# ----------------------------------------------------------------------

def fig3_profile_cell(profile: int, n_jobs: int, n_machines: int) -> float:
    """IdleRatio (interquartile mean, %) of one cluster profile."""
    jobs = traces.cluster_profile_jobs(profile, n_jobs=n_jobs)
    results = _run(RuntimeConfig(n_machines=n_machines, policy=jetscope_policy()), jobs)
    per_job = [r.metrics.idle_ratio() for r in results]
    return 100.0 * four_quartile_summary(per_job)["iq_mean"]


def fig8_stats_cell(n_jobs: int) -> dict[str, float]:
    """Structural statistics of the generated trace."""
    jobs = traces.generate_trace(traces.TraceConfig(n_jobs=n_jobs))
    return traces.trace_statistics(jobs)


def fig8_runtime_cell(n_jobs: int, chunk: int, n_chunks: int) -> list[float]:
    """Unloaded runtimes of one fixed slice of the trace sample.

    The sample is always split into ``n_chunks`` strided slices (a spec
    constant, never the worker count), so the union of all chunks is the
    same multiset of runtimes no matter how many processes run them.
    """
    jobs = traces.generate_trace(traces.TraceConfig(n_jobs=n_jobs))
    sample = jobs[:: max(1, n_jobs // 300)]
    runtimes: list[float] = []
    for job in sample[chunk::n_chunks]:
        solo = Job(dag=job.dag, submit_time=0.0)
        runtimes.append(_run(RuntimeConfig(), solo)[0].metrics.run_time)
    return runtimes


# ----------------------------------------------------------------------
# TPC-H / Terasort head-to-heads
# ----------------------------------------------------------------------

def tpch_query_cell(query: int, scale: float) -> dict[str, float]:
    """Swift-vs-Spark run time of one TPC-H query."""
    swift_t = _run(RuntimeConfig(), tpch.query_job(query, scale))[0].metrics.run_time
    spark_t = _run(
        RuntimeConfig(policy=spark_policy()), tpch.query_job(query, scale)
    )[0].metrics.run_time
    return {"swift_s": swift_t, "spark_s": spark_t}


def q9_phase_cell(policy: str, scale: float) -> dict[str, dict[str, float]]:
    """4-phase breakdown of Q9's critical stages under one policy."""
    res = _run(RuntimeConfig(policy=_policy(policy)), tpch.query_job(9, scale))[0]
    out: dict[str, dict[str, float]] = {}
    for stage in tpch.Q9_CRITICAL_STAGES:
        b = res.metrics.phase_breakdown(stage)
        out[stage] = {
            "L": b.launch, "SR": b.shuffle_read,
            "P": b.processing, "SW": b.shuffle_write,
        }
    return out


def terasort_cell(m: int, n: int) -> dict[str, float]:
    """Swift-vs-Spark run time of one Terasort size point."""
    swift_t = _run(RuntimeConfig(), terasort.terasort_job(m, n))[0].metrics.run_time
    spark_t = _run(
        RuntimeConfig(policy=spark_policy()), terasort.terasort_job(m, n)
    )[0].metrics.run_time
    return {"swift_s": swift_t, "spark_s": spark_t}


# ----------------------------------------------------------------------
# Trace replays (Figs. 10, 11, 15 and the failure-rate sweep)
# ----------------------------------------------------------------------

def trace_replay_cell(
    policy: str, n_jobs: int, mean_interarrival: float
) -> dict[str, object]:
    """Full trace replay under one system: makespan, per-job latencies,
    and the executor busy intervals that feed Fig. 10's time series.

    The busy intervals are the run's task-attempt spans
    (``RecordingTracer.task_intervals()``), the runtime's only record of
    them; the determinism tests pin them in the runtime fingerprints.
    """
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=n_jobs, mean_interarrival=mean_interarrival)
    )
    tracer = RecordingTracer()
    results = _run(RuntimeConfig(policy=_policy(policy)), jobs, tracer=tracer)
    return {
        "makespan": makespan(results),
        "latencies": {r.job_id: r.metrics.latency for r in results},
        "busy_intervals": [list(interval) for interval in tracer.task_intervals()],
    }


def trace_base_latency_cell(n_jobs: int, mean_interarrival: float) -> dict[str, float]:
    """Failure-free per-job latencies of a trace (the Fig. 15 reference)."""
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=n_jobs, mean_interarrival=mean_interarrival)
    )
    results = _run(RuntimeConfig(), jobs)
    return {r.job_id: r.metrics.latency for r in results}


def trace_failure_cell(
    policy: str,
    n_jobs: int,
    mean_interarrival: float,
    failure_rate: float,
    seed: int,
    reference: dict[str, float],
) -> list[float]:
    """Per-job slowdown (%) of one policy replaying the trace with
    trace-calibrated failures, relative to the failure-free reference."""
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=n_jobs, mean_interarrival=mean_interarrival)
    )
    plan = sample_trace_failures(
        [j.job_id for j in jobs], failure_rate, random.Random(seed)
    )
    config = RuntimeConfig(
        policy=_policy(policy), failure_plan=plan, reference_duration=reference
    )
    results = _run(config, jobs)
    return [
        100.0 * (r.metrics.latency / reference[r.job_id] - 1.0)
        for r in results
        if reference.get(r.job_id, 0) > 0
    ]


# ----------------------------------------------------------------------
# Fig. 12 — shuffle schemes
# ----------------------------------------------------------------------

def shuffle_scheme_cell(
    category: str,
    scheme: str,
    n_jobs: int,
    n_machines: int,
    executors_per_machine: int,
) -> float:
    """Mean job latency of one (shuffle class, scheme) combination."""
    config = SimConfig()
    config.network.reference_machines = n_machines
    policy = swift_policy(name=f"swift_{scheme}", shuffle=ShuffleScheme(scheme))
    jobs = traces.shuffle_class_jobs(category, n_jobs=n_jobs)
    results = _run(
        RuntimeConfig(
            n_machines=n_machines, executors_per_machine=executors_per_machine,
            policy=policy, sim=config,
        ),
        jobs,
    )
    return mean_latency(results)


# ----------------------------------------------------------------------
# Q13 fault injection (Fig. 14) and the heartbeat ablation
# ----------------------------------------------------------------------

def q13_runtime_cell(policy: str, scale: float) -> float:
    """Failure-free Q13 run time (shared baseline of Fig. 14 and the
    heartbeat ablation)."""
    return _run(
        RuntimeConfig(policy=_policy(policy)), tpch.query_job(13, scale)
    )[0].metrics.run_time


def fig14_injection_cell(
    policy: str, stage: str, fraction: float, scale: float, reference: float
) -> float:
    """Q13 run time with one task crash injected at ``fraction`` of the
    baseline runtime into ``stage``."""
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage=stage, at_fraction=fraction)
    config = RuntimeConfig(
        policy=_policy(policy), failure_plan=FailurePlan([spec]),
        reference_duration=reference,
    )
    return _run(config, tpch.query_job(13, scale))[0].metrics.run_time


def heartbeat_cell(interval: float, reference: float) -> float:
    """Q13 run time with a machine crash at 30% under one heartbeat interval."""
    sim = SimConfig()
    sim.admin.heartbeat_intervals = ((1 << 62, interval),)
    plan = FailurePlan(
        [FailureSpec(kind=FailureKind.MACHINE_CRASH, machine_id=1, at_fraction=0.3)]
    )
    config = RuntimeConfig(sim=sim, failure_plan=plan, reference_duration=reference)
    return _run(config, tpch.query_job(13))[0].metrics.run_time


# ----------------------------------------------------------------------
# Fig. 16 — scalability
# ----------------------------------------------------------------------

def fig16_count_cell(
    count: int,
    n_machines: int,
    n_jobs: int,
    tasks_per_stage: int,
    work_seconds: float,
) -> float:
    """Makespan of the scalability batch at one executor-pool size."""
    from .figures import scalability_workload

    per_machine = max(1, count // n_machines)
    jobs = scalability_workload(
        n_jobs=n_jobs, tasks_per_stage=tasks_per_stage, work_seconds=work_seconds
    )
    config = RuntimeConfig(n_machines=n_machines, executors_per_machine=per_machine)
    return makespan(_run(config, jobs))


# ----------------------------------------------------------------------
# Ablation cells
# ----------------------------------------------------------------------

def partitioning_cell(partitioner: str, n_jobs: int) -> dict[str, float]:
    """Trace replay under one unit of scheduling (graphlet/job/stage/bubble)."""
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=n_jobs, mean_interarrival=0.08)
    )
    instance = PARTITIONERS[partitioner]()
    policy = swift_policy(name=f"swift_{instance.name}", partitioner=instance)
    results = _run(RuntimeConfig(policy=policy), jobs)
    idle = statistics.mean(r.metrics.idle_ratio() for r in results)
    return {
        "makespan_s": makespan(results),
        "mean_latency_s": mean_latency(results),
        "mean_idle_ratio_pct": 100 * idle,
    }


def submission_order_cell(order: str, query: int) -> dict[str, float]:
    """Q``query`` under one graphlet submission order."""
    policy = swift_policy(name=f"swift_{order}", submission=SubmissionOrder(order))
    res = _run(RuntimeConfig(policy=policy), tpch.query_job(query))[0]
    return {
        "run_time_s": res.metrics.run_time,
        "mean_idle_ratio_pct": 100 * res.metrics.idle_ratio(),
    }


def cache_capacity_cell(capacity_gb: float, n_jobs: int) -> dict[str, float]:
    """Large-shuffle replay under one Cache Worker memory budget; reports
    the LRU spill count alongside the latency impact."""
    config = SimConfig()
    config.cache_worker.memory_capacity = int(capacity_gb * 1024 ** 3)
    jobs = traces.shuffle_class_jobs("large", n_jobs=n_jobs)
    runtime = Runtime(
        RuntimeConfig(n_machines=50, executors_per_machine=16, sim=config)
    )
    runtime.submit(jobs)
    results = runtime.run()
    spills = sum(
        machine.cache_worker.spill_events
        for machine in runtime.inner.cluster.machines
        if machine.cache_worker is not None
    )
    return {
        "mean_latency_s": mean_latency(results),
        "spill_events": spills,
    }


def chaos_campaign_cell(
    seed: int,
    workload: str,
    profile: str,
    shrink: bool = True,
    out_dir: "str | None" = None,
    audit: bool = False,
) -> dict[str, object]:
    """One chaos campaign: generate from ``seed``, inject, check, shrink.

    The cell regenerates everything from its kwargs (campaigns are a
    deterministic function of seed/workload/profile), so the spec-hash
    cache and process-pool fan-out both apply to chaos sweeps.
    """
    from ..chaos import ChaosEngine

    engine = ChaosEngine(
        workload=workload, profile=profile, out_dir=out_dir, audit=audit
    )
    return engine.run_seed(seed, shrink=shrink).to_dict()
