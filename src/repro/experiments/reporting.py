"""The paper's claims, each in one place, and the report built from them.

Each :class:`ReportSection` is the single definition of one claim of the
paper's evaluation (Section V) or of one ablation: its title, the paper's
claim, its runner at one size, and the shape check that decides whether
the claim holds.  ``python -m repro experiment KEY`` runs one section;
``python -m repro report`` runs them all, prints every verdict into the
document, and exits 1 if any claim fails.  The repository's checked-in
EXPERIMENTS.md is produced by::

    python -m repro report --out EXPERIMENTS.md
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from . import ablations, figures
from .harness import ExperimentResult


@dataclass(frozen=True)
class ReportSection:
    """One claim: its paper context, its runner and its shape check.

    ``check`` returns the conditions that failed (empty: the claim holds).
    It tests explicit conditions rather than using ``assert``, so a claim
    is still checked under ``python -O``.
    """

    key: str
    title: str
    paper_claim: str
    runner: Callable[[], ExperimentResult]
    check: Callable[[ExperimentResult], list[str]]


def _sections() -> list[ReportSection]:
    """Every claim, in report order."""
    return [
        ReportSection(
            "fig3", "Fig. 3 — IdleRatio under gang scheduling",
            "average IdleRatio of 3.81 / 13.15 / 14.45 / 14.92 % on four "
            "production clusters",
            lambda: figures.fig3_idle_ratio(n_jobs=120),
            _check_fig3,
        ),
        ReportSection(
            "fig8", "Fig. 8 — trace characteristics",
            "average run time 30 s; >90 % of jobs within 120 s; >80 % of "
            "jobs with <=80 tasks and <=4 stages",
            lambda: figures.fig8_trace_characteristics(n_jobs=1500),
            _check_fig8,
        ),
        ReportSection(
            "fig9a", "Fig. 9(a) — TPC-H, Swift vs Spark",
            "total speedup of 2.11x over tuned Spark SQL 2.4.6 on 1 TB",
            lambda: figures.fig9a_tpch(),
            _check_fig9a,
        ),
        ReportSection(
            "fig9b", "Fig. 9(b) — Q9 4-phase breakdown",
            "Spark: >71 s launching critical tasks; disk shuffle write/read "
            "137.8 s / 133.9 s. Swift: shuffle read 8.92 s, write 9.61 s",
            lambda: figures.fig9b_q9_phases(),
            _check_fig9b,
        ),
        ReportSection(
            "table1", "Table I — Terasort",
            "speedups 3.07 / 3.96 / 7.06 / 14.18 for 250^2..1500^2; Spark "
            "time shoots up past 1000^2, Swift grows only slightly",
            lambda: figures.table1_terasort(),
            _check_table1,
        ),
        ReportSection(
            "fig10", "Fig. 10 — running executors replaying the trace",
            "Swift and Bubble finish all jobs in 240 s and 296 s — speedups "
            "of 2.44x and 1.98x over JetScope",
            lambda: _fig10_summary(n_jobs=400),
            _check_fig10,
        ),
        ReportSection(
            "fig11", "Fig. 11 — normalized latency CDF",
            "more than 60 % of JetScope jobs at >=2x Swift's latency; "
            "Bubble tracks Swift closely",
            lambda: figures.fig11_latency_cdf(n_jobs=400),
            _check_fig11,
        ),
        ReportSection(
            "fig12", "Fig. 12 — shuffle-scheme ablation",
            "best scheme per class: small->Direct (Local +4 %, Remote +3 %); "
            "medium->Remote (Direct +25 %, Local +3.8 %); large->Local "
            "(Direct +108.3 %, Remote +47.9 %)",
            lambda: figures.fig12_shuffle_ablation(n_jobs=8),
            _check_fig12,
        ),
        ReportSection(
            "fig13", "Fig. 13 — TPC-H Q13 job details",
            "stage/task table of Q13 (M1: 498 tasks ... R6: 30 records)",
            figures.fig13_q13_details,
            _check_fig13,
        ),
        ReportSection(
            "fig14", "Fig. 14 — single-failure injection into Q13",
            "Swift slows down <10 % for every injection (0 at t=20); job "
            "restart pays roughly the injection time again",
            figures.fig14_fault_injection,
            _check_fig14,
        ),
        ReportSection(
            "fig15", "Fig. 15 — trace replay with real-world failures",
            "job restart slows execution by 45 % on average; Swift's "
            "fine-grained recovery by 5 %",
            lambda: figures.fig15_trace_failures(n_jobs=200),
            _check_fig15,
        ),
        ReportSection(
            "fig16", "Fig. 16 — scalability (strong scaling)",
            "near-linear speedup from 10,000 to 140,000 executors",
            lambda: figures.fig16_scalability(
                executor_counts=(10_000, 20_000, 40_000, 80_000, 140_000),
                n_jobs=2500,
            ),
            _check_fig16,
        ),
        ReportSection(
            "ablation-partitioning", "Ablation — unit of scheduling",
            "(beyond the paper) graphlets vs whole-job vs per-stage vs bubbles",
            lambda: ablations.partitioning_ablation(n_jobs=150),
            _check_partitioning,
        ),
        ReportSection(
            "ablation-adaptive", "Ablation — adaptive shuffle envelope",
            "(beyond the paper) adaptive selection tracks the best fixed scheme",
            lambda: figures.adaptive_shuffle_envelope(n_jobs=6),
            _check_adaptive,
        ),
        ReportSection(
            "ablation-heartbeat", "Ablation — heartbeat interval",
            "(beyond the paper) Section IV-A's detection-latency trade-off",
            ablations.heartbeat_interval_ablation,
            _check_heartbeat,
        ),
        ReportSection(
            "ablation-cache", "Ablation — Cache Worker memory",
            "(beyond the paper) LRU spill engages only under severe pressure",
            lambda: ablations.cache_memory_ablation(),
            _check_cache,
        ),
        ReportSection(
            "ablation-submission", "Ablation — graphlet submission order",
            "(beyond the paper) Section III-A2's conservative-order trade-off",
            ablations.submission_order_ablation,
            _check_submission,
        ),
        ReportSection(
            "ablation-failure-rate", "Ablation — failure-rate sweep",
            "(beyond the paper) degradation under increasing failure rates",
            lambda: ablations.failure_rate_sweep(n_jobs=120),
            _check_failure_rate,
        ),
        ReportSection(
            "shuffle-recovery", "Shuffle v2 — recovery under Cache Worker loss",
            "(beyond the paper; the FuxiShuffle direction) replica failover "
            "serves lost shuffle shares without producer re-runs",
            _shuffle_recovery_summary,
            _check_shuffle_recovery,
        ),
    ]


# ----------------------------------------------------------------------
# Runners that summarize a figure's result into its report table
# ----------------------------------------------------------------------

def _fig10_summary(n_jobs: int) -> ExperimentResult:
    spans = figures.fig10_makespans(n_jobs=n_jobs)
    result = ExperimentResult(name="fig10_makespans")
    for name in ("swift", "bubble", "jetscope"):
        result.add(
            system=name,
            makespan_s=spans[name],
            speedup_over_jetscope=spans["jetscope"] / spans[name],
        )
    return result


def _shuffle_recovery_summary() -> ExperimentResult:
    """Shuffle v2 vs v1 recovery time under one injected Cache Worker loss.

    Both variants replay the same Terasort and lose the same Cache Worker
    at the same fraction of the failure-free makespan; only the replication
    factor differs.  Times are *simulated* seconds, so the rows are
    deterministic.
    """
    payload = ablations.bench_shuffle_recovery(m=128, n=128)
    result = ExperimentResult(
        name="shuffle_v2_recovery",
        notes=(
            f"same {payload['job']} replay, same Cache Worker lost at "
            f"{payload['at_fraction']:.0%} of the failure-free makespan "
            f"({payload['baseline_makespan_s']:.1f}s simulated); v1 must "
            "re-run producers, v2 fails over to surviving replicas"
        ),
    )
    result.add(
        variant="v1 (replication=1)",
        makespan_s=payload["v1_makespan_s"],
        recovery_s=payload["v1_recovery_s"],
        recovery_path=f"{payload['v1_reruns']} producer re-run(s)",
    )
    result.add(
        variant="v2 (replication=2)",
        makespan_s=payload["v2_makespan_s"],
        recovery_s=payload["v2_recovery_s"],
        recovery_path=f"{payload['v2_failovers']} replica failover read(s)",
    )
    return result


# ----------------------------------------------------------------------
# Shape checks: each returns the conditions that failed
# ----------------------------------------------------------------------

def _failed(*conditions: tuple[bool, str]) -> list[str]:
    """The messages of the conditions that do not hold."""
    return [message for holds, message in conditions if not holds]


def _rows_by(result: ExperimentResult, key: str) -> dict[object, dict[str, object]]:
    return {row[key]: row for row in result.rows}


def _check_fig3(result: ExperimentResult) -> list[str]:
    ratios = result.column("idle_ratio_pct")
    return _failed(
        (ratios[0] < min(ratios[1:]), "shallow cluster #1 does not idle least"),
        (all(5.0 < value < 30.0 for value in ratios[1:]),
         "a deep cluster's IdleRatio is not in (5, 30) %"),  # low-to-mid teens
    )


def _check_fig8(result: ExperimentResult) -> list[str]:
    measured = {row["metric"]: row["measured"] for row in result.rows}
    return _failed(
        (15.0 <= measured["avg_runtime_s"] <= 45.0, "average run time not in [15, 45] s"),
        (measured["frac_runtime_le_120s"] >= 0.88, "fewer than 88 % of jobs within 120 s"),
        (measured["frac_tasks_le_80"] >= 0.80, "fewer than 80 % of jobs with <=80 tasks"),
        (measured["frac_stages_le_4"] >= 0.80, "fewer than 80 % of jobs with <=4 stages"),
    )


def _check_fig9a(result: ExperimentResult) -> list[str]:
    total = _rows_by(result, "query")["TOTAL"]
    return _failed(
        (all(row["speedup"] > 1.0 for row in result.rows if row["query"] != "TOTAL"),
         "Swift does not win every query"),
        (1.7 <= total["speedup"] <= 3.2, "total speedup not in [1.7, 3.2]"),  # paper: 2.11x
    )


def _check_fig9b(result: ExperimentResult) -> list[str]:
    def total(*columns: str) -> float:
        return sum(row[column] for row in result.rows for column in columns)

    return _failed(
        (total("spark_L") > 10 * total("swift_L"),
         "Spark's launch time is not >10x Swift's"),
        (total("spark_SR", "spark_SW") > 3 * total("swift_SR", "swift_SW"),
         "Spark's shuffle I/O is not >3x Swift's"),
    )


def _check_table1(result: ExperimentResult) -> list[str]:
    speedups = result.column("speedup")
    swift, spark = result.column("swift_s"), result.column("spark_s")
    return _failed(
        (all(b > a for a, b in zip(speedups, speedups[1:])),
         "speedup does not grow with job size"),
        (speedups[0] > 2.0, "smallest-size speedup is not >2"),
        (speedups[-1] > 8.0, "largest-size speedup is not >8"),
        (swift[-1] < swift[0] * 1.5, "Swift's time grows 1.5x or more"),
        (spark[-1] > spark[0] * 3.0, "Spark's time does not grow >3x"),
    )


def _check_fig10(result: ExperimentResult) -> list[str]:
    spans = {row["system"]: row["makespan_s"] for row in result.rows}
    return _failed(
        (spans["swift"] < spans["bubble"] < spans["jetscope"],
         "makespans are not ordered swift < bubble < jetscope"),
        (spans["jetscope"] / spans["swift"] > 1.25, "JetScope/Swift makespan is not >1.25"),
    )


def _check_fig11(result: ExperimentResult) -> list[str]:
    rows = _rows_by(result, "system")
    jetscope, bubble = rows["jetscope"], rows["bubble"]
    return _failed(
        (jetscope["median_ratio"] > bubble["median_ratio"],
         "JetScope's median ratio does not exceed Bubble's"),
        (jetscope["frac_ge_2x"] > bubble["frac_ge_2x"],
         "JetScope's >=2x tail is not heavier than Bubble's"),
        (jetscope["frac_ge_2x"] > 0.15, "JetScope's >=2x tail is not >0.15"),
    )


def _check_fig12(result: ExperimentResult) -> list[str]:
    rows = _rows_by(result, "shuffle_class")
    small, medium, large = rows["small"], rows["medium"], rows["large"]
    return _failed(
        (small["direct"] <= small["local"] + 1e-9, "small: Local beats Direct"),
        (small["direct"] <= small["remote"] + 0.02, "small: Remote beats Direct by >0.02"),
        (medium["remote"] <= medium["local"], "medium: Local beats Remote"),
        (medium["remote"] < medium["direct"], "medium: Remote does not beat Direct"),
        (medium["direct"] / medium["remote"] > 1.10,  # paper: +25%
         "medium: Direct/Remote is not >1.10"),
        (large["local"] < large["remote"] < large["direct"],
         "large: not ordered Local < Remote < Direct"),
        (large["direct"] / large["local"] > 1.6,  # paper: +108%
         "large: Direct/Local is not >1.6"),
    )


def _check_fig13(result: ExperimentResult) -> list[str]:
    return _failed(*(
        (row["built_tasks"] == row["paper_tasks"], f"{row['stage']}: task count differs")
        for row in result.rows
    ))


def _check_fig14(result: ExperimentResult) -> list[str]:
    by_stage = _rows_by(result, "stage")
    swift = result.column("swift_slowdown_pct")
    return _failed(
        (max(swift) < 12.0, "a Swift slowdown is not <12 %"),
        (all(row["restart_slowdown_pct"] > row["inject_at"] - 10 for row in result.rows),
         "a restart slowdown is not > injection time - 10"),
        # M2's output was already consumed at t=20: no slowdown at all.
        (by_stage["M2"]["swift_slowdown_pct"] < 1.0, "the t=20 injection into M2 slows Swift"),
        # J3 (critical path, large input) is the expensive recovery.
        (by_stage["J3"]["swift_slowdown_pct"] == max(swift),
         "J3 is not Swift's most expensive recovery"),
    )


def _check_fig15(result: ExperimentResult) -> list[str]:
    rows = _rows_by(result, "policy")
    swift = rows["swift"]["mean_slowdown_pct"]
    restart = rows["swift_restart"]["mean_slowdown_pct"]
    return _failed(
        (restart > 3 * max(swift, 1.0), "restart's slowdown is not >3x Swift's"),
        (swift < 18.0, "Swift's slowdown is not <18 %"),
        (25.0 < restart < 80.0, "restart's slowdown is not in (25, 80) %"),  # paper: ~45%
    )


def _check_fig16(result: ExperimentResult) -> list[str]:
    speedups = result.column("speedup")
    return _failed(
        (all(b > a for a, b in zip(speedups, speedups[1:])),
         "speedup does not grow with the executor count"),
        (all(row["speedup"] >= 0.6 * row["ideal"] for row in result.rows),
         "a speedup is below 60 % of ideal"),  # near-linear
        (all(row["speedup"] <= row["ideal"] * 1.05 for row in result.rows),
         "a speedup is super-linear"),
    )


def _check_partitioning(result: ExperimentResult) -> list[str]:
    rows = _rows_by(result, "partitioning")
    swift, whole = rows["graphlet (swift)"], rows["whole job"]
    return _failed(
        (swift["mean_idle_ratio_pct"] < whole["mean_idle_ratio_pct"],
         "graphlets do not idle less than whole-job gangs"),
        (swift["makespan_s"] <= whole["makespan_s"] * 1.05,
         "graphlet makespan exceeds whole-job's by >5 %"),
        (swift["mean_latency_s"] <= whole["mean_latency_s"],
         "graphlet mean latency exceeds whole-job's"),
    )


def _check_adaptive(result: ExperimentResult) -> list[str]:
    return _failed(*(
        (row["overhead_pct"] < 8.0, f"{row['shuffle_class']}: adaptive overhead is not <8 %")
        for row in result.rows
    ))


def _check_heartbeat(result: ExperimentResult) -> list[str]:
    slowdowns = result.column("slowdown_pct")
    return _failed(
        (all(b >= a for a, b in zip(slowdowns, slowdowns[1:])),
         "slowdown shrinks as the heartbeat interval grows"),
        (slowdowns[-1] > slowdowns[0] + 10.0,
         "the longest interval costs <=10 points more than the shortest"),
    )


def _check_cache(result: ExperimentResult) -> list[str]:
    latencies = result.column("mean_latency_s")
    # Latency is non-increasing as the cache grows, and the two generous
    # configurations are indistinguishable (spill never triggers).
    return _failed(
        (all(b <= a + 1e-6 for a, b in zip(latencies, latencies[1:])),
         "latency grows with a larger cache"),
        (latencies[-1] == latencies[-2], "the two largest caches differ in latency"),
        (latencies[0] > latencies[-1], "the smallest cache is not slower than the largest"),
    )


def _check_submission(result: ExperimentResult) -> list[str]:
    rows = _rows_by(result, "submission")
    eager, conservative = rows["eager"], rows["conservative"]
    return _failed(
        (eager["mean_idle_ratio_pct"] > conservative["mean_idle_ratio_pct"] + 3.0,
         "eager submission does not idle >3 points more"),
        (conservative["run_time_s"] <= eager["run_time_s"] * 1.1,
         "conservative order is >10 % slower than eager"),
    )


def _check_failure_rate(result: ExperimentResult) -> list[str]:
    last = result.rows[-1]
    restart, swift = last["swift_restart_slowdown_pct"], last["swift_slowdown_pct"]
    return _failed(
        (all(row["swift_restart_slowdown_pct"] > row["swift_slowdown_pct"]
             for row in result.rows if row["failure_rate"] != 0.0),
         "restart does not degrade more than Swift at every failure rate"),
        # At high failure rates restart degrades much faster.  (The gap is
        # diluted by single-stage jobs, for which re-running the failed task
        # and restarting the job cost the same.)
        (restart > 1.5 * max(swift, 1.0), "at the highest rate restart is not >1.5x Swift"),
        (restart - swift > 10.0, "at the highest rate restart is <=10 points worse"),
    )


def _check_shuffle_recovery(result: ExperimentResult) -> list[str]:
    v1, v2 = result.rows
    return _failed(
        (v2["recovery_s"] < v1["recovery_s"], "v2 does not recover faster than v1"),
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _markdown_table(result: ExperimentResult) -> str:
    if not result.rows:
        return "_(no rows)_"
    keys = list(result.rows[0].keys())
    lines = ["| " + " | ".join(keys) + " |",
             "|" + "|".join("---" for _ in keys) + "|"]
    for row in result.rows:
        cells = []
        for key in keys:
            value = row.get(key)
            cells.append(f"{value:.2f}" if isinstance(value, float) else str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def verdict(failed: list[str]) -> str:
    """One line saying whether a section's claim holds."""
    if not failed:
        return "**Check:** passed."
    return "**Check: FAILED** — " + "; ".join(failed) + "."


def render_section(
    section: ReportSection, result: ExperimentResult, failed: list[str]
) -> str:
    """A section's EXPERIMENTS.md block: claim, table, notes and verdict."""
    parts = [f"## {section.title}", "", f"**Paper:** {section.paper_claim}.", "",
             _markdown_table(result), ""]
    if result.notes:
        parts += [f"_{result.notes}_", ""]
    parts.append(verdict(failed))
    return "\n".join(parts)


def build_report(echo: Callable[[str], None] | None = None) -> tuple[str, list[str]]:
    """Run and check every section; return the EXPERIMENTS.md document and
    the failed conditions, each prefixed with its section key."""
    parts = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro report`.",
        "",
        "Every table and figure of the paper's evaluation (Section V), "
        "regenerated on the simulator, plus six ablations and the shuffle v2 "
        "recovery comparison.  Absolute times "
        "differ from the paper (our substrate is a calibrated simulator, "
        "not Alibaba's testbed); the reproduction targets are *shapes*: "
        "who wins, by roughly what factor, and where crossovers fall.  "
        "See DESIGN.md for the substitution inventory.",
        "",
        "Each section ends with the verdict of its shape check, defined "
        "next to the section in `repro.experiments.reporting`; `python -m "
        "repro report` exits 1 if any claim fails, and `python -m repro "
        "experiment KEY` runs and checks one section.",
        "",
        "Every experiment fans its independent simulation cells through "
        "`repro.experiments.parallel`: pass `--jobs N` to `python -m repro "
        "report` / `experiment` to use N worker processes (results are "
        "byte-identical to a serial run).",
        "",
        "Host-time performance lives outside this report, in one "
        "benchmark: `python3 bench/run.py` runs five seeded workloads "
        "(trace replay, the same replay under failures with strict "
        "auditing, the multi-tenant service, and two TPC-H SQL mixes) "
        "end to end, and `--trace 1` splits each into per-layer self "
        "times.  `python3 bench/compare.py` compares two sets of runs.  "
        "See `bench/README.md` for the workloads, metrics and regression "
        "bounds.",
        "",
        "Fault-tolerance results are additionally stress-tested by the "
        "chaos engine: `python -m repro chaos --runs 200 --seed 0` sweeps "
        "seeded multi-failure campaigns and checks recovery invariants "
        "after every run (add `--audit` to also reconcile resource "
        "accounting, as the CI smoke job does).  A violated campaign is "
        "shrunk to a minimal repro and saved as JSON; replay it exactly "
        "with `python -m repro chaos --replay chaos_repros/<file>.json` "
        "(campaigns are fully deterministic, so the replay reproduces the "
        "violation bit for bit).  Named profiles target the shuffle v2 "
        "resilience paths — `--profile cache-worker-loss-during-shuffle` "
        "(replication failover under Cache Worker losses), "
        "`mode-switch-under-crash`, and `replica-placement-skew` — with a "
        "`bounded-shuffle-recovery` invariant asserting every recovery "
        "decision was justified (no producer re-run while replicas "
        "survived, no failover without a survivor).  See README's "
        "\"Fault tolerance & chaos\" and \"Shuffle v2\" sections.",
        "",
    ]
    failures: list[str] = []
    for section in _sections():
        started = time.time()
        result = section.runner()
        failed = section.check(result)
        if echo:
            echo(f"{section.key}: {'passed' if not failed else 'FAILED'} "
                 f"in {time.time() - started:.1f}s")
        failures += [f"{section.key}: {message}" for message in failed]
        parts += [render_section(section, result, failed), ""]
    return "\n".join(parts), failures
