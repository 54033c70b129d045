"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the experiment keys: one per paper claim, each a report section.
``experiment <key> [...] [--jobs N]``
    Run one or more report sections by key, print each section's table
    and the verdict of its shape check; exit 1 if a claim fails.
``report [--out PATH] [--jobs N]``
    Run and check every section and write the EXPERIMENTS.md document;
    exit 1 if any claim fails.
``sql [--query TEXT | --file PATH] [--scale N] [--execute]``
    Compile a Swift-language query to a job DAG, show the plan and the
    graphlet partitioning, simulate it, and optionally execute it on the
    columnar engine over a generated mini TPC-H database (``--execute``).
``replay [--n-jobs N]``
    Replay a trace against Swift, Bubble Execution, and JetScope.
``chaos [--seed N] [--runs N] [--workload W] [--profile P] [--jobs N]``
    Run seeded randomized multi-failure campaigns against a workload,
    check recovery invariants after every run, and shrink any violation
    to a minimal replayable JSON repro (``--replay PATH`` re-runs one).
``trace <experiment> [--out PATH] [--format chrome|jsonl|both]``
    Run one experiment's workload with structured tracing enabled and
    export the records (Chrome ``trace_event`` JSON loads directly in
    Perfetto / ``chrome://tracing``).
``serve [--trace smoke|small|paper] [--out DIR] [--n-jobs N] [--seed N]``
    Replay a multi-tenant Poisson arrival trace through the job-submission
    gateway (admission control, quotas, EDF dispatch) and write the
    per-job queue-time CSV plus a per-tenant summary JSON into ``--out``.
    ``--check`` replays twice and verifies byte-identical output and the
    quota/slot-conservation invariants (the CI service-smoke gate).

Flag conventions: ``--out`` names the output file, ``--jobs`` fans cells
across worker processes, ``--n-jobs`` sizes the workload, ``--seed`` makes
randomized workloads replayable.

Host-time performance is measured by the benchmark in ``bench/``
(``python3 bench/run.py``; see ``bench/README.md``), not by this CLI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .core import partition_job, swift_policy
from .experiments import reporting


def _cmd_list(_: argparse.Namespace) -> int:
    for section in reporting._sections():
        print(section.key)
    return 0


def _apply_parallel_options(args: argparse.Namespace) -> None:
    """Route ``--jobs`` to the parallel cell harness."""
    from .experiments import parallel

    if args.jobs_workers:
        parallel.set_default_jobs(args.jobs_workers)


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("worker count must be >= 1")
    return value


def _add_output_option(
    parser: argparse.ArgumentParser, default: str | None = None, what: str = "a file"
) -> None:
    """The shared ``--out`` option."""
    parser.add_argument(
        "--out", default=default, metavar="PATH",
        help=f"write to {what}" + (f" (default {default})" if default else
                                   " instead of stdout"),
    )


def _add_parallel_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_worker_count, default=None, dest="jobs_workers", metavar="N",
        help="fan independent simulation cells across N worker processes "
             "(results are identical to a serial run; default 1)",
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    _apply_parallel_options(args)
    sections = {section.key: section for section in reporting._sections()}
    unknown = [key for key in args.keys if key not in sections]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sections)}", file=sys.stderr)
        return 2
    status = 0
    for key in args.keys:
        section = sections[key]
        result = section.runner()
        failed = section.check(result)
        if args.json:
            print(result.to_json())
            print(f"{key}: {reporting.verdict(failed)}", file=sys.stderr)
        else:
            print(reporting.render_section(section, result, failed))
            _maybe_plot(result)
        print()
        if failed:
            status = 1
    return status


def _maybe_plot(result) -> None:
    """Render an ASCII chart for results with a natural plot shape."""
    from .experiments.plots import xy_plot

    if not result.rows:
        return
    keys = set(result.rows[0].keys())
    if {"executors", "speedup", "ideal"} <= keys:
        xs = [float(row["executors"]) for row in result.rows]
        print()
        print(xy_plot(
            xs,
            {"ideal": [float(r["ideal"]) for r in result.rows],
             "measured": [float(r["speedup"]) for r in result.rows]},
        ))


def _cmd_report(args: argparse.Namespace) -> int:
    _apply_parallel_options(args)
    text, failures = reporting.build_report(echo=lambda m: print(m, file=sys.stderr))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    for failure in failures:
        print(f"CLAIM FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from .api import Runtime, RuntimeConfig
    from .core.dag import Job
    from .sql import (
        FIG1_QUERY,
        compile_sql,
        explain,
        generate_database,
        parse,
        plan_statement,
        run_sql,
    )

    if args.file:
        with open(args.file) as handle:
            query = handle.read()
    else:
        query = args.query or FIG1_QUERY

    statement = parse(query)
    print("=== logical plan ===")
    print(explain(plan_statement(statement)))
    dag = compile_sql(query, scale_factor=args.scale, job_id="cli_sql")
    print("\n=== job DAG ===")
    for stage in dag:
        operators = " -> ".join(str(op) for op in stage.operators)
        print(f"  {stage.name:<4} x{stage.task_count:<5} [{operators}]")
    graph = partition_job(dag)
    print(f"\n=== graphlets ({len(graph)}) ===")
    for graphlet in graph.graphlets:
        print(f"  {graphlet.graphlet_id}: {graphlet.stage_names}")
    runtime = Runtime(RuntimeConfig(n_machines=args.machines))
    runtime.submit(Job(dag=dag))
    [result] = runtime.run()
    print(f"\nsimulated run time: {result.metrics.run_time:.2f}s "
          f"({len(result.metrics.tasks)} tasks)")
    if args.execute:
        outcome = run_sql(query, generate_database())
        print(f"\n=== results ({len(outcome.rows)} rows, first 10) "
              f"[engine={outcome.engine}] ===")
        for row in outcome.rows[:10]:
            print(f"  {row}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .api import Runtime, RuntimeConfig
    from .baselines import bubble_policy, jetscope_policy
    from .core.metrics import makespan, mean_latency
    from .workloads import TraceConfig, generate_trace

    jobs = generate_trace(
        TraceConfig(n_jobs=args.n_jobs, mean_interarrival=0.08, seed=args.seed)
    )
    print(f"replaying {args.n_jobs} jobs "
          f"({sum(j.dag.total_tasks() for j in jobs)} tasks) on 100 nodes")
    spans = {}
    for policy in (swift_policy(), bubble_policy(), jetscope_policy()):
        runtime = Runtime(RuntimeConfig(policy=policy))
        runtime.submit(jobs)
        results = runtime.run()
        spans[policy.name] = makespan(results)
        print(f"  {policy.name:<10} makespan={spans[policy.name]:7.1f}s "
              f"mean latency={mean_latency(results):6.1f}s")
    for name in ("swift", "bubble"):
        print(f"  {name} speedup over jetscope: "
              f"{spans['jetscope'] / spans[name]:.2f}x")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .chaos import ChaosEngine
    from .experiments.parallel import default_jobs

    _apply_parallel_options(args)
    engine = ChaosEngine(
        workload=args.workload, profile=args.profile, out_dir=args.out,
        audit=args.audit,
    )
    if args.replay:
        result = engine.replay(args.replay)
        status = "PASS" if result.passed else "FAIL"
        print(f"replay {args.replay}: {status} "
              f"(makespan {result.makespan:.1f}s, "
              f"baseline {result.baseline_makespan:.1f}s)")
        for violation in result.violations:
            print(f"  [{violation.invariant}] {violation.message}")
        return 0 if result.passed else 1
    seeds = range(args.seed, args.seed + args.runs)
    report = engine.sweep(seeds, jobs=default_jobs(), shrink=not args.no_shrink)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_summary())
    return 0 if report.ok else 1


#: ``repro serve`` trace presets: arrival process + cluster + policy knobs.
#: ``paper`` replays the acceptance-scale trace (1,000 tenants / 2,000
#: arrivals on 2,000 machines); ``smoke`` is the CI service-smoke gate.
_SERVE_PRESETS: dict[str, dict[str, float | int]] = {
    "smoke": dict(n_tenants=50, n_jobs=120, machines=20, executors=8,
                  mean_interarrival=0.4, max_stage_tasks=60,
                  pressure=4.0, pending=16, concurrent=4),
    "small": dict(n_tenants=200, n_jobs=500, machines=100, executors=8,
                  mean_interarrival=0.1, max_stage_tasks=200,
                  pressure=6.0, pending=32, concurrent=8),
    "paper": dict(n_tenants=1000, n_jobs=2000, machines=2000, executors=4,
                  mean_interarrival=0.05, max_stage_tasks=700,
                  pressure=6.0, pending=32, concurrent=8),
}


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from .api import (
        AdmissionPolicy,
        RuntimeConfig,
        Service,
        ServiceConfig,
        TenantSpec,
    )
    from .workloads.traces import tenant_arrival_trace

    preset = _SERVE_PRESETS[args.trace]
    n_tenants = args.n_tenants or int(preset["n_tenants"])
    n_jobs = args.n_jobs or int(preset["n_jobs"])

    def replay() -> tuple["Service", object]:
        config = ServiceConfig(
            runtime=RuntimeConfig(
                n_machines=int(preset["machines"]),
                executors_per_machine=int(preset["executors"]),
                audit=args.audit,
                audit_strict=False,
            ),
            admission=AdmissionPolicy(
                max_pending_per_tenant=int(preset["pending"]),
                max_pool_pressure=float(preset["pressure"]),
            ),
            default_tenant=TenantSpec(
                name="default", max_concurrent_jobs=int(preset["concurrent"])
            ),
        )
        service = Service(config)
        service.submit_trace(tenant_arrival_trace(
            n_tenants=n_tenants,
            n_jobs=n_jobs,
            seed=args.seed,
            mean_interarrival=float(preset["mean_interarrival"]),
            max_stage_tasks=int(preset["max_stage_tasks"]),
        ))
        return service, service.run()

    print(f"serving {n_jobs} arrivals across {n_tenants} tenants "
          f"on {preset['machines']}x{preset['executors']} executors "
          f"(trace={args.trace}, seed={args.seed})", file=sys.stderr)
    service, result = replay()
    summary = result.to_dict()
    totals = summary["totals"]
    queue_time, job_makespan = totals["queue_time"], totals["job_makespan"]
    print(f"tenants: {len(result.tenants)}  admitted: {result.admitted}  "
          f"rejected: {result.rejected}  overruns: {totals['deadline_overruns']}")
    rejected_by: dict[str, int] = {}
    for report in result.tenants.values():
        for reason, count in report.rejected_by_reason.items():
            rejected_by[reason] = rejected_by.get(reason, 0) + count
    if rejected_by:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(rejected_by.items()))
        print(f"rejections: {detail}")
    print(f"time-in-queue: p50 {queue_time['p50']:.1f}s  "
          f"p95 {queue_time['p95']:.1f}s  p99 {queue_time['p99']:.1f}s")
    print(f"job makespan:  p50 {job_makespan['p50']:.1f}s  "
          f"p95 {job_makespan['p95']:.1f}s  p99 {job_makespan['p99']:.1f}s  "
          f"(run makespan {totals['makespan']:.1f}s)")
    os.makedirs(args.out, exist_ok=True)
    csv_path = result.write_queue_csv(os.path.join(args.out, "queue_times.csv"))
    summary_path = result.write_summary(os.path.join(args.out, "summary.json"))
    print(f"wrote {csv_path}", file=sys.stderr)
    print(f"wrote {summary_path}", file=sys.stderr)
    if not args.check:
        return 0
    problems = service.gateway.quota_violations()
    if args.audit and result.audit is not None and result.audit["violations"]:
        problems.append(f"audit violations: {result.audit['violations']}")
    _, second = replay()
    if second.csv != result.csv:
        problems.append("queue-time CSV is not deterministic across replays")
    if problems:
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        return 1
    print("serve check passed: deterministic replay, quotas and "
          "slot conservation hold")
    return 0


def _trace_registry() -> dict[str, tuple[str, Callable[[], list]]]:
    """Traceable experiment workloads by key (values: description, jobs)."""
    from .workloads import TraceConfig, generate_trace, terasort, tpch, traces

    return {
        "fig3": ("profile-1 trace sample (Fig. 3 workload)",
                 lambda: traces.cluster_profile_jobs(1, n_jobs=20)),
        "fig9a": ("TPC-H Q1 (Fig. 9(a))", lambda: [tpch.query_job(1)]),
        "fig9b": ("TPC-H Q9 (Fig. 9(b) phase breakdown)",
                  lambda: [tpch.query_job(9)]),
        "fig13": ("TPC-H Q13 (Fig. 13 details)", lambda: [tpch.query_job(13)]),
        "table1": ("100x100 Terasort (Table 1)",
                   lambda: [terasort.terasort_job(100, 100)]),
        "replay": ("25-job trace replay (Fig. 10 workload, reduced)",
                   lambda: generate_trace(
                       TraceConfig(n_jobs=25, mean_interarrival=0.08))),
    }


def _cmd_trace(args: argparse.Namespace) -> int:
    from .api import Simulation, TraceConfig

    registry = _trace_registry()
    key = args.experiment
    if key not in registry:
        print(f"unknown experiment {args.experiment!r}", file=sys.stderr)
        print(f"available: {', '.join(registry)}", file=sys.stderr)
        return 2
    description, jobs_factory = registry[key]
    jobs = jobs_factory()
    config = TraceConfig(
        path=args.out or f"trace_{key}",
        format=args.format,
        engine_events=args.engine_events,
    )
    print(f"tracing {key}: {description} "
          f"({len(jobs)} job(s), {sum(j.dag.total_tasks() for j in jobs)} tasks)",
          file=sys.stderr)
    outcome = Simulation().run(jobs, trace=config)
    print(f"{len(outcome.trace)} records, makespan {outcome.makespan:.1f}s, "
          f"{'all jobs completed' if outcome.completed else 'some jobs failed'}")
    for path in outcome.trace_files:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Swift (ICDE 2021) reproduction: experiments and tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    p_exp = sub.add_parser("experiment", help="run experiments by key")
    p_exp.add_argument("keys", nargs="+", help="experiment keys (see `list`)")
    p_exp.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")
    _add_parallel_options(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    _add_output_option(p_rep, what="a file")
    _add_parallel_options(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    p_trace = sub.add_parser(
        "trace", help="run one experiment workload with tracing enabled"
    )
    p_trace.add_argument("experiment",
                         help="what to trace (see the `trace` docs; e.g. fig3)")
    p_trace.add_argument("--format", choices=("chrome", "jsonl", "both"),
                         default="chrome",
                         help="export format (chrome loads in Perfetto)")
    p_trace.add_argument("--engine-events", action="store_true",
                         help="also record every simulator-engine event")
    _add_output_option(p_trace, what="this base name (suffix added per format)")
    p_trace.set_defaults(func=_cmd_trace)

    p_sql = sub.add_parser("sql", help="compile/run a Swift-language query")
    p_sql.add_argument("--query", help="query text (default: the paper's Fig. 1)")
    p_sql.add_argument("--file", help="read the query from a file")
    p_sql.add_argument("--scale", type=float, default=1000.0,
                       help="TPC-H scale factor for planning (default 1000 = 1 TB)")
    p_sql.add_argument("--machines", type=int, default=100)
    p_sql.add_argument("--execute", action="store_true",
                       help="also execute the query on a mini database")
    p_sql.set_defaults(func=_cmd_sql)

    p_chaos = sub.add_parser(
        "chaos",
        help="randomized multi-failure campaigns with invariant checking",
    )
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="first campaign seed (default 0)")
    p_chaos.add_argument("--runs", type=int, default=20, metavar="N",
                         help="campaigns to run: seeds seed..seed+N-1 "
                              "(default 20)")
    p_chaos.add_argument("--workload", default="terasort",
                         choices=("terasort", "tpch-q13", "trace"),
                         help="workload to inject into (default terasort)")
    from .chaos import PROFILES

    p_chaos.add_argument("--profile", default="standard",
                         choices=tuple(sorted(PROFILES)),
                         help="failure profile: a hostility level (light/"
                              "standard/hostile) or a named scenario such "
                              "as cache-worker-loss-during-shuffle "
                              "(default standard)")
    p_chaos.add_argument("--no-shrink", action="store_true",
                         help="report violations without minimizing them")
    p_chaos.add_argument("--audit", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="shadow every resource register/release with "
                              "the accounting ledger; divergences fail the "
                              "resource-conservation invariant (default off)")
    p_chaos.add_argument("--replay", metavar="PATH",
                         help="re-run a saved JSON repro instead of sweeping")
    p_chaos.add_argument("--json", action="store_true",
                         help="emit the full ChaosReport as JSON")
    _add_output_option(p_chaos, default="chaos_repros",
                       what="repro files in this directory")
    _add_parallel_options(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    p_replay = sub.add_parser("replay", help="trace replay vs baselines")
    p_replay.add_argument("--n-jobs", type=int, default=250, dest="n_jobs",
                          help="number of trace jobs to replay")
    p_replay.add_argument("--seed", type=int, default=7,
                          help="trace-generator seed (default 7)")
    p_replay.set_defaults(func=_cmd_replay)

    p_serve = sub.add_parser(
        "serve",
        help="replay a multi-tenant arrival trace through the job gateway",
    )
    p_serve.add_argument("--trace", choices=tuple(_SERVE_PRESETS),
                         default="paper",
                         help="arrival-trace preset: smoke (CI-sized), "
                              "small, or paper (1,000 tenants / 2,000 "
                              "arrivals on 2,000 machines; default)")
    p_serve.add_argument("--n-jobs", type=int, default=None, dest="n_jobs",
                         metavar="N", help="override the preset's arrival count")
    p_serve.add_argument("--n-tenants", type=int, default=None, metavar="N",
                         help="override the preset's tenant count")
    p_serve.add_argument("--seed", type=int, default=7,
                         help="arrival-trace seed (default 7)")
    p_serve.add_argument("--audit", action=argparse.BooleanOptionalAction,
                         default=False,
                         help="wire the resource-accounting ledger through "
                              "the replay (default off)")
    p_serve.add_argument("--check", action="store_true",
                         help="replay twice and verify byte-identical "
                              "queue-time CSVs plus quota/slot-conservation "
                              "invariants; exit 1 on any mismatch")
    _add_output_option(p_serve, default="service_out",
                       what="queue_times.csv + summary.json in this directory")
    p_serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
