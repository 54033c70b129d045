#!/usr/bin/env python3
"""Replay a production-style trace against Swift, JetScope, and Bubble.

A scaled-down version of the paper's Figs. 10-11 experiment: the same
Fig. 8-calibrated trace is executed under all three systems on a 100-node
cluster, and the script reports makespans, mean latencies, the normalized
latency distribution, and an executor-utilization sparkline.
"""

from repro.api import Runtime, RuntimeConfig
from repro.baselines import bubble_policy, jetscope_policy
from repro.core import (
    makespan,
    mean_latency,
    normalized_cdf,
    swift_policy,
    utilization_series,
)
from repro.experiments.plots import sparkline
from repro.obs import RecordingTracer
from repro.workloads import TraceConfig, generate_trace

N_JOBS = 250


def main() -> None:
    jobs = generate_trace(TraceConfig(n_jobs=N_JOBS, mean_interarrival=0.08))
    print(f"Replaying {N_JOBS} trace jobs "
          f"({sum(j.dag.total_tasks() for j in jobs)} tasks) on 100 nodes...\n")

    latencies: dict[str, dict[str, float]] = {}
    spans: dict[str, float] = {}
    series: dict[str, list[int]] = {}
    for policy in (swift_policy(), bubble_policy(), jetscope_policy()):
        tracer = RecordingTracer()
        runtime = Runtime(RuntimeConfig(policy=policy), tracer=tracer)
        runtime.submit(jobs)
        results = runtime.run()
        spans[policy.name] = makespan(results)
        latencies[policy.name] = {r.job_id: r.metrics.latency for r in results}
        horizon = spans[policy.name]
        samples = utilization_series(
            tracer.task_intervals(), step=horizon / 120, horizon=horizon
        )
        series[policy.name] = [s.running_executors for s in samples]
        print(f"{policy.name:<10} makespan={spans[policy.name]:7.1f}s  "
              f"mean latency={mean_latency(results):6.1f}s")

    print("\nSpeedup over JetScope (paper: Swift 2.44x, Bubble 1.98x):")
    for name in ("swift", "bubble"):
        print(f"  {name:<8} {spans['jetscope'] / spans[name]:.2f}x")

    print("\nNormalized job latency vs Swift (paper Fig. 11):")
    swift_lat = latencies["swift"]
    for name in ("bubble", "jetscope"):
        ordered = sorted(swift_lat)
        cdf = normalized_cdf(
            [latencies[name][j] for j in ordered], [swift_lat[j] for j in ordered]
        )
        ratios = [r for r, _ in cdf]
        median = ratios[len(ratios) // 2]
        frac2x = sum(1 for r in ratios if r >= 2.0) / len(ratios)
        print(f"  {name:<10} median ratio={median:.2f}  jobs >=2x Swift: {frac2x:.0%}")

    print("\nRunning executors over time (paper Fig. 10):")
    for name, values in series.items():
        print(f"  {name:<10} |{sparkline(values)}|")


if __name__ == "__main__":
    main()
