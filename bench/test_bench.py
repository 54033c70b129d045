"""Tests of the benchmark itself, on tiny inputs.

Run with ``PYTHONPATH=src python -m pytest bench -q``; the repository's
tier-1 suite (``testpaths = ["tests"]``) does not collect this directory.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def measure(name: str, trace: bool, seed: int = 7) -> run.Measurement:
    return run.measure(scenarios.make(name, seed, "tiny"), seconds=0.0, trace=trace)


@pytest.fixture(scope="module")
def traced() -> dict[str, run.Measurement]:
    return {name: measure(name, trace=True) for name in WORKLOADS}


def test_tiny_workloads_pass_their_checks(traced):
    for name, meas in traced.items():
        assert meas.errors == [], name
        assert meas.failed == 0 and meas.attempted > 0, name


def test_metric_names_are_declared_and_emitted(traced):
    declared = {group: [m["name"] for m in SPEC[group]] for group in ("end_to_end", "per_layer")}
    for names in declared.values():
        assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
        assert len(set(names)) == len(names)
    produced: set[str] = set()
    for meas in traced.values():
        assert list(run.emit(run.end_to_end(meas), SPEC["end_to_end"])) == declared["end_to_end"]
        values = run.per_layer(meas)
        produced |= set(values)
        line = run.emit({**dict.fromkeys(declared["per_layer"], 0.0), **values}, SPEC["per_layer"])
        assert list(line) == declared["per_layer"]
    # Every declared per-layer metric is measured by at least one workload.
    assert set(declared["per_layer"]) <= produced


def test_end_to_end_metrics_are_never_zero(traced):
    for name, meas in traced.items():
        assert all(value > 0 for value in run.end_to_end(meas).values()), name


def test_traced_and_untraced_digests_agree(traced):
    for name, meas in traced.items():
        untraced = {it.outcome.digest for it in meas.untraced}
        traced_digests = {it.outcome.digest for it in meas.traced}
        assert untraced == traced_digests == {meas.digest}, name


def test_self_times_sum_to_traced_wall(traced):
    for name, meas in traced.items():
        stats = run.layer_stats(meas)
        total = sum(self_s for self_s, _ in stats.values())
        wall = sum(s for it in meas.traced for s in it.clock.op_seconds)
        assert total == pytest.approx(wall, rel=0.01), name


def test_seed_changes_the_inputs():
    assert measure("replay", False, seed=7).digest != measure("replay", False, seed=8).digest


def test_wrong_sql_row_fails_the_check(monkeypatch):
    real = scenarios.run_sql

    def wrong(sql, database, **kwargs):
        outcome = real(sql, database, **kwargs)
        if kwargs.get("engine") != "row" and outcome.rows:
            first = dict(outcome.rows[0])
            first[next(iter(first))] = "wrong"
            outcome.rows[0] = first
        return outcome

    monkeypatch.setattr(scenarios, "run_sql", wrong)
    meas = measure("sql_interactive", trace=False)
    assert meas.errors
    assert meas.failed / meas.attempted > 0


def test_dropped_job_fails_the_check(monkeypatch):
    real = scenarios.SwiftRuntime.run

    def drop_one(self, *args, **kwargs):
        real(self, *args, **kwargs)
        self.results.pop()
        return self.results

    monkeypatch.setattr(scenarios.SwiftRuntime, "run", drop_one)
    meas = measure("replay", trace=False)
    assert meas.errors
    assert meas.failed / meas.attempted > 0


def test_patched_attributes_are_restored():
    before = [(owner, attr, vars(owner)[attr]) for owner, attr in spans.patch_targets()]
    assert not any(hasattr(original, "bench_span") for _, _, original in before)
    for name in ("service", "sql_interactive"):
        measure(name, trace=True)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_compare_verdicts():
    metric = {"better": "lower", "bound": 0.1}
    assert compare.verdict([1.0, 1.01, 0.99], [1.02, 1.03, 1.01], metric)["verdict"] == "ok"
    assert compare.verdict([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], metric)["verdict"] == "regressed"
    assert compare.verdict([1.0, 2.0, 0.5], [1.0, 1.1, 0.9], metric)["verdict"] == "unresolved"
    faster = compare.verdict([1.0, 2.0, 0.5], [0.1, 0.2, 0.3], metric)
    assert faster["verdict"] == "ok" and faster["win"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
