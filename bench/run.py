"""Run the benchmark: ``python3 bench/run.py [--workload NAME] [--seed N] ...``.

With ``--workload`` one workload runs in this process and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Without it,
every workload runs in its own fresh child process, one at a time, and the
end-to-end metrics print as ``workload metric value unit`` lines.

Every iteration gets freshly set-up inputs, timed as ``setup_s``.  One
warm-up iteration is discarded, then iterations are measured until
``--seconds`` have passed (never fewer than :data:`MIN_ITERATIONS`), with
``gc.collect()`` before each iteration and the collector left on.
Correctness is checked outside the timed regions; a failed check exits 1.

``--trace 1`` alternates untraced and traced iterations: the traced ones
run with every layer's entry points wrapped (see ``spans.py``) and give a
per-layer self-time table; the untraced ones give the tracing overhead.
``--out PATH`` writes the result document, stamped with the host; with
tracing it is JSONL whose first line is that document and whose other lines
are the recorded spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple, Optional

from spans import ROOT as ROOT_SPAN
from spans import SpanRecorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fewest measured iterations of a run, whatever ``--seconds`` says
#: (traced runs: fewest traced ones, each paired with an untraced one).
MIN_ITERATIONS = 5
MIN_TRACED = 2


class Iteration(NamedTuple):
    """One iteration: its timed operations, what it produced, its set-up time."""

    clock: Any
    outcome: Any
    setup_s: float


@dataclass
class Measurement:
    """Everything one workload run measured."""

    untraced: list[Iteration] = field(default_factory=list)
    traced: list[Iteration] = field(default_factory=list)
    recorder: Any = None
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    outcomes: dict[str, float] = field(default_factory=dict)


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: metric names, units and directions."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: Any, seconds: float, trace: bool, keep_spans: bool = False) -> Measurement:
    """Warm up, then measure ``workload`` for ``seconds`` (see module docs)."""
    # scenarios imports the program, which main() first puts on sys.path.
    from scenarios import Clock

    workload.prepare()
    recorder = SpanRecorder(keep_spans) if trace else None

    def iteration(traced: bool) -> Iteration:
        gc.collect()
        clock = Clock(recorder if traced else None)
        with recorder.instrument() if traced else nullcontext():
            start = perf_counter()
            state = workload.setup()
            setup_s = perf_counter() - start
            outcome = workload.iterate(state, clock)
        return Iteration(clock, outcome, setup_s)

    warmup = iteration(False).outcome
    result = Measurement(recorder=recorder)
    minimum = MIN_TRACED if trace else MIN_ITERATIONS
    start = perf_counter()
    while True:
        result.untraced.append(iteration(False))
        if trace:
            result.traced.append(iteration(True))
        if len(result.untraced) >= minimum and perf_counter() - start >= seconds:
            break
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    measured = [it.outcome for it in result.untraced + result.traced]
    result.attempted = sum(o.attempted for o in measured)
    result.failed = sum(o.failed for o in measured)
    errors = [error for o in [warmup, *measured] for error in o.errors]
    digests = {o.digest for o in [warmup, *measured]}
    if len(digests) > 1:
        errors.append(f"result digests differ across iterations ({len(digests)} distinct)")
    finish_failed, finish_errors = workload.finish(measured)
    result.failed += finish_failed
    result.errors = sorted(set(errors + finish_errors))
    result.digest = warmup.digest
    result.outcomes = dict(warmup.counts)
    return result


def end_to_end(meas: Measurement) -> dict[str, float]:
    """End-to-end metric values from the untraced iterations.

    ``latency_ms_p50`` is the median over operation kinds of each kind's
    median latency (for SQL, the median query's median).  The plain median
    of all query times would sit on the edge between two queries' clusters,
    where one outlier moves it.
    """
    by_kind: dict[object, list[float]] = {}
    for it in meas.untraced:
        for kind, seconds in zip(it.clock.op_kinds, it.clock.op_seconds):
            by_kind.setdefault(kind, []).append(seconds)
    rates = [it.outcome.work / sum(it.clock.op_seconds) for it in meas.untraced]
    return {
        "setup_s": statistics.median(it.setup_s for it in meas.untraced),
        "throughput_per_s": statistics.median(rates),
        "latency_ms_p50": 1e3 * statistics.median(
            statistics.median(values) for values in by_kind.values()
        ),
        "peak_rss_mb": meas.peak_rss_mb,
    }


def sql_operators(meas: Measurement) -> dict[str, tuple[float, int, int]]:
    """Per operator kind: (self seconds, executions, rows out), summed over
    the traced iterations, from the columnar engine's own spans."""
    from repro.obs.records import RecordKind

    ops: dict[str, tuple[float, int, int]] = {}
    for it in meas.traced:
        for record in it.clock.sql_tracer.records:
            if record.kind is RecordKind.SPAN and record.name.startswith("columnar."):
                kind = record.name.split(".", 1)[1]
                seconds, count, rows = ops.get(kind, (0.0, 0, 0))
                ops[kind] = (seconds + record.dur, count + 1, rows + record.args.get("rows", 0))
    return ops


def layer_stats(meas: Measurement) -> dict[str, tuple[float, int]]:
    """Self seconds and calls per span name, summed over traced iterations;
    their self seconds add up to the traced wall time."""
    ops = sql_operators(meas)
    return meas.recorder.split_sql_run({k: (s, c) for k, (s, c, _) in ops.items()})


def per_layer(meas: Measurement) -> dict[str, float]:
    """Per-layer values, averaged per traced iteration."""
    from scenarios import percentile

    rec = meas.recorder
    n = len(meas.traced)
    stats = layer_stats(meas)
    values: dict[str, float] = {}
    for name, (self_s, calls) in stats.items():
        values[f"{name}.self_s"] = self_s / n
        values[f"{name}.calls"] = calls / n
    for kind, (_, _, rows) in sql_operators(meas).items():
        values[f"sql.columnar.op.{kind}.rows"] = rows / n
    values.update(meas.traced[-1].outcome.counts)
    wall = sum(self_s for self_s, _ in stats.values())
    traced = statistics.median(sum(it.clock.op_seconds) for it in meas.traced)
    untraced = statistics.median(sum(it.clock.op_seconds) for it in meas.untraced)
    values.update({
        "core.cache_worker.bytes_written": rec.bytes_written / n,
        "core.scheduler.grant_wait_p95_sim_s": percentile(rec.grant_waits, 95),
        "bench.traced_wall_s": wall / n,
        "bench.residual_pct": 100.0 * stats.get(ROOT_SPAN, (0.0, 0))[0] / wall if wall else 0.0,
        "bench.tracing_overhead_pct": 100.0 * (traced / untraced - 1.0),
    })
    return values


def layer_table(name: str, meas: Measurement, values: dict[str, float]) -> list[str]:
    """The per-layer self-time table, largest self time first."""
    n = len(meas.traced)
    stats = layer_stats(meas)
    wall = sum(self_s for self_s, _ in stats.values())
    lines = [
        f"{name}: {n} traced iterations, traced wall {wall / n:.4f} s/iteration, "
        f"residual {values['bench.residual_pct']:.2f}%, "
        f"tracing overhead {values['bench.tracing_overhead_pct']:+.1f}%",
        f"  {'layer':<44} {'calls':>10} {'self_s':>10} {'share':>7}",
    ]
    for layer, (self_s, calls) in sorted(stats.items(), key=lambda item: -item[1][0]):
        label = "(residual)" if layer == ROOT_SPAN else layer
        lines.append(
            f"  {label:<44} {calls / n:>10.0f} {self_s / n:>10.5f} "
            f"{100.0 * self_s / wall if wall else 0.0:>6.2f}%"
        )
    return lines


def host_stamp(loadavg: tuple[float, float, float]) -> dict[str, Any]:
    """Where a result was measured: versions, CPUs, git commit, load."""
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_sha": sha,
        "loadavg_start": list(loadavg),
    }


def emit(values: dict[str, float], declared: list[dict[str, Any]]) -> dict[str, Any]:
    """The declared metrics with their units; a missing one is an error."""
    out = {}
    for metric in declared:
        if metric["name"] not in values:
            raise KeyError(f"no value for declared metric {metric['name']!r}")
        out[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return out


def run_one(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """Measure one workload in this process; print its result line."""
    import scenarios

    loadavg = os.getloadavg()
    workload = scenarios.make(args.workload, args.seed)
    meas = measure(workload, args.seconds, bool(args.trace), keep_spans=bool(args.out))
    if args.trace:
        values = per_layer(meas)
        for line in layer_table(args.workload, meas, values):
            print(line)
        metrics = emit({**dict.fromkeys(_names(spec["per_layer"]), 0.0), **values},
                       spec["per_layer"])
    else:
        metrics = emit(end_to_end(meas), spec["end_to_end"])
        for name, metric in metrics.items():
            print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    for error in meas.errors:
        print(f"{args.workload}: CHECK FAILED: {error}", file=sys.stderr)
    correct = not meas.errors and meas.failed == 0
    line = {"correct": correct, "attempted": meas.attempted, "failed": meas.failed,
            "metrics": metrics}
    if args.out:
        result = {**line, "digest": meas.digest, "outcomes": meas.outcomes,
                  "iterations": len(meas.untraced), "errors": meas.errors}
        spans = None
        if args.trace:
            spans = [
                json.dumps({"workload": args.workload, "id": span_id, "parent": parent,
                            "name": name, "start": start, "end": end})
                for span_id, parent, name, start, end in meas.recorder.spans
            ]
        write_document(args.out, document(args, loadavg, {args.workload: result}), spans)
    print(json.dumps(line))
    return 0 if correct else 1


def _names(declared: list[dict[str, Any]]) -> list[str]:
    return [metric["name"] for metric in declared]


def document(args: argparse.Namespace, loadavg: tuple[float, float, float],
             workloads: dict[str, Any]) -> dict[str, Any]:
    """A result document: per-workload results stamped with the host."""
    return {"schema": 1, "host": host_stamp(loadavg), "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace), "workloads": workloads}


def write_document(path: str, doc: dict[str, Any], span_lines: Optional[list[str]]) -> None:
    """Write ``doc`` as JSON, or with spans as JSONL whose first line is ``doc``."""
    with open(path, "w", encoding="utf-8") as fh:
        if span_lines is None:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            fh.writelines(line + "\n" for line in span_lines)


def read_document(path: str) -> dict[str, Any]:
    """A result document written by :func:`write_document`."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.splitlines()[0])


def run_all(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """Run every workload in its own child process, one at a time."""
    loadavg = os.getloadavg()
    merged: dict[str, Any] = {}
    span_lines: list[str] = []
    status = 0
    with tempfile.TemporaryDirectory() as parts:
        for entry in spec["workloads"]:
            name = entry["name"]
            part = os.path.join(parts, f"{name}.json")
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", part]
            started = perf_counter()
            child = subprocess.run(command, capture_output=True, text=True)
            sys.stderr.write(child.stderr)
            lines = child.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            print(f"# {name}: {perf_counter() - started:.1f} s, exit {child.returncode}",
                  file=sys.stderr)
            if child.returncode != 0 or not os.path.exists(part):
                status = 1
                if not os.path.exists(part):
                    continue
            merged.update(read_document(part)["workloads"])
            if args.trace:
                with open(part, encoding="utf-8") as fh:
                    span_lines.extend(fh.read().splitlines()[1:])
    if args.out:
        write_document(args.out, document(args, loadavg, merged),
                       span_lines if args.trace else None)
    return status


def main(argv: Optional[list[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=_names(spec["workloads"]),
                        help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of every input generator (11 is held out for claims)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer self times")
    parser.add_argument("--out", help="write the result document (JSONL with spans if traced)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Single-threaded numerics; numpy is first imported after this point.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
