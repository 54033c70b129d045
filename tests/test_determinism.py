"""Determinism guarantees of this reproduction.

Invariants the performance work must never break:

* The parallel cell harness returns byte-identical experiment rows for
  any worker count (``--jobs N`` is a wall-clock knob, not a semantic
  one).
* The runtime's simulated outcomes (JobMetrics, busy intervals, admin
  stats and shuffle-recovery logs) hash to the fingerprints pinned in
  ``tests/data/runtime_fingerprints.json``, for every policy, failure-free
  and under every failure kind.  They were recorded by the earlier
  finish-ledger runtime, which matched a one-event-per-task oracle
  exactly.  Regenerate them only with a change meant to move simulated
  outcomes, and say which cases moved and why::

      PYTHONPATH=src python tests/test_determinism.py
* The array-backed event kernel behaves exactly like the object-heap
  oracle in ``tests/legacy_kernel.py`` under random interleavings.
* Tracing observes without steering: a run with a RecordingTracer
  attached produces byte-identical results to an untraced run, and the
  tracer's task spans reproduce the runtime's busy intervals exactly.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.baselines import bubble_policy, jetscope_policy, restart_policy, spark_policy
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.obs import RecordingTracer
from repro.experiments import figures
from repro.experiments.parallel import clear_memory_cache, set_default_jobs
from repro.sim.cluster import Cluster
from repro.sim.failures import FailureKind, sample_trace_failures
from repro.workloads import traces

FINGERPRINTS = Path(__file__).parent / "data" / "runtime_fingerprints.json"


@pytest.fixture(autouse=True)
def _clean_harness_state():
    clear_memory_cache()
    set_default_jobs(None)
    yield
    clear_memory_cache()
    set_default_jobs(None)


def test_serial_and_parallel_harness_rows_identical():
    """`--jobs 4` must reproduce the serial rows exactly."""
    serial = figures.fig9a_tpch(queries=(1, 6), scale=0.2)
    clear_memory_cache()
    set_default_jobs(4)
    parallel = figures.fig9a_tpch(queries=(1, 6), scale=0.2)
    assert parallel.rows == serial.rows
    assert parallel.to_json() == serial.to_json()


def test_parallel_cells_recompute_identically_without_cache():
    """Same experiment, fresh worker processes: identical payloads (no
    hidden per-process RNG state leaks into the cells).  Compared via
    to_json because off-paper sizes report paper_speedup as NaN."""
    set_default_jobs(2)
    sizes = ((30, 30), (60, 60))
    first = figures.table1_terasort(sizes=sizes)
    clear_memory_cache()
    second = figures.table1_terasort(sizes=sizes)
    assert first.to_json() == second.to_json()


def _failure_plan(jobs):
    return sample_trace_failures(
        [j.job_id for j in jobs], 0.5, random.Random(99)
    )


def run_jobs(policy, jobs, failure_plan, tracer=None, reference=100.0):
    """``harness.run_jobs`` on a 100 x 32 cluster."""
    runtime = SwiftRuntime(
        Cluster.build(100, 32), policy, failure_plan=failure_plan, tracer=tracer,
        reference_duration=reference,
    )
    runtime.submit_all(list(jobs))
    return runtime.run(), runtime


#: Machine-level failures hit one of the first few machines, where the
#: least-loaded-first scheduler places most work.
_MACHINE_KINDS = (
    FailureKind.MACHINE_CRASH,
    FailureKind.MACHINE_QUARANTINE,
    FailureKind.CACHE_WORKER_LOSS,
)

_POLICIES = (swift_policy, jetscope_policy, bubble_policy, restart_policy, spark_policy)
_KINDS = (None, *FailureKind)
_SEEDS = (0, 1, 2)


def _kind_plan(jobs, kind, seed):
    """Half the jobs get one ``kind`` failure at a trace-sampled time."""
    rng = random.Random(f"{kind.value}:{seed}")
    plan = sample_trace_failures([j.job_id for j in jobs], 0.5, rng, kinds=(kind,))
    for spec in plan.specs:
        if kind in _MACHINE_KINDS:
            spec.machine_id = rng.randrange(8)
        if kind is FailureKind.MACHINE_QUARANTINE:
            spec.duration = rng.choice((None, 2.0, 20.0))
    return plan


def _case_id(make_policy, kind) -> str:
    return f"{make_policy.__name__}-{kind.name if kind else 'none'}"


def runtime_fingerprint(make_policy, kind, seed) -> str:
    """sha256 of everything a run observably produces: per-job results
    (completed/failed/reason and the full ``JobMetrics`` repr, task timings
    included), busy intervals, admin stats and the shuffle-recovery log."""
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=8, mean_interarrival=0.2, seed=7 + seed)
    )
    plan, reference = None, 100.0
    if kind is not None:
        plan = _kind_plan(jobs, kind, seed)
        # Fig. 15 method: failures strike at a fraction of each job's
        # own failure-free latency, so they land while it runs.
        baseline, _ = run_jobs(make_policy(), jobs, None)
        reference = {r.job_id: r.latency for r in baseline}
    results, runtime = run_jobs(make_policy(), jobs, plan, reference=reference)
    assert len(results) == len(jobs)
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr((
            result.job_id, result.completed, result.failed, result.reason,
            result.metrics,
        )).encode())
    digest.update(repr(runtime.busy_intervals).encode())
    digest.update(repr(runtime.admin.stats.__dict__).encode())
    digest.update(repr(runtime.shuffle_recovery_log).encode())
    return digest.hexdigest()


def _all_fingerprints() -> dict[str, str]:
    return {
        f"{_case_id(make_policy, kind)}-{seed}": runtime_fingerprint(make_policy, kind, seed)
        for make_policy in _POLICIES
        for kind in _KINDS
        for seed in _SEEDS
    }


@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.name if k else "none")
@pytest.mark.parametrize("make_policy", _POLICIES)
def test_runtime_matches_parent_fingerprints(make_policy, kind):
    """Simulated outcomes are pinned: JobMetrics (timestamps, phase times,
    attempts, recovery counters), busy intervals, admin stats and the
    shuffle-recovery log hash to the pinned fingerprints, failure-free and
    under every failure kind (see the module docstring)."""
    expected = json.loads(FINGERPRINTS.read_text())
    for seed in _SEEDS:
        key = f"{_case_id(make_policy, kind)}-{seed}"
        assert runtime_fingerprint(make_policy, kind, seed) == expected[key], key


@pytest.mark.parametrize("make_policy", [swift_policy, restart_policy])
@pytest.mark.parametrize("with_failures", [False, True])
def test_tracing_does_not_perturb_simulation(make_policy, with_failures):
    """Attaching a RecordingTracer is pure observation: results, busy
    intervals, and admin stats stay byte-identical, and the task-attempt
    spans reproduce the runtime's private busy_intervals list (the record
    stream the figure scripts now consume)."""
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=6, mean_interarrival=0.2)
    )
    plan = _failure_plan(jobs) if with_failures else None
    plain_results, plain_rt = run_jobs(make_policy(), jobs, failure_plan=plan)
    tracer = RecordingTracer()
    traced_results, traced_rt = run_jobs(
        make_policy(), jobs, failure_plan=plan, tracer=tracer,
    )
    assert len(plain_results) == len(traced_results)
    for plain, traced in zip(plain_results, traced_results):
        assert plain.job_id == traced.job_id
        assert plain.completed == traced.completed
        assert plain.metrics == traced.metrics
    assert plain_rt.busy_intervals == traced_rt.busy_intervals
    assert plain_rt.admin.stats.__dict__ == traced_rt.admin.stats.__dict__
    assert tracer.task_intervals() == traced_rt.busy_intervals


# ----------------------------------------------------------------------
# Differential kernel property: array kernel vs legacy oracle
# ----------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sim.engine import Simulator  # noqa: E402

from legacy_kernel import LegacySimulator  # noqa: E402

_DELAYS = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)

#: One kernel operation: mirrors the full public surface the runtime uses.
_KERNEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELAYS, st.sampled_from([0, 10, 20])),
        st.tuples(st.just("batch"), st.lists(_DELAYS, max_size=12)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=255)),
        st.tuples(st.just("run_until"), _DELAYS),
        st.just(("run",)),
        st.just(("step",)),
        st.just(("clear",)),
    ),
    max_size=40,
)


def _recorder(log: list, tag: int, sim) -> object:
    def callback() -> None:
        log.append((tag, sim.now))
    return callback


@settings(max_examples=60, deadline=None)
@given(ops=_KERNEL_OPS)
def test_kernels_agree_on_random_interleavings(ops):
    """The array-backed kernel and the legacy object-heap oracle must be
    observationally identical under any schedule/cancel/clear/run
    interleaving: same execution order, same clock, same pending counts."""
    sims = (Simulator(), LegacySimulator())
    logs: tuple[list, list] = ([], [])
    handles: tuple[list, list] = ([], [])
    tag = 0
    for op in ops:
        kind = op[0]
        if kind == "schedule":
            _, delay, prio = op
            for sim, log, hs in zip(sims, logs, handles):
                hs.append(
                    sim.schedule(delay, _recorder(log, tag, sim), priority=prio)
                )
            tag += 1
        elif kind == "batch":
            _, delays = op
            for sim, log in zip(sims, logs):
                sim.schedule_batch(
                    [
                        (delay, _recorder(log, tag + i, sim), ())
                        for i, delay in enumerate(delays)
                    ]
                )
            tag += len(delays)
        elif kind == "cancel":
            _, index = op
            if handles[0]:
                for hs in handles:
                    hs[index % len(hs)].cancel()
        elif kind == "run_until":
            _, delta = op
            for sim in sims:
                sim.run(until=sim.now + delta)
        elif kind == "run":
            for sim in sims:
                sim.run()
        elif kind == "step":
            stepped = [sim.step() for sim in sims]
            assert stepped[0] == stepped[1]
        else:  # clear
            cleared = [sim.clear_pending() for sim in sims]
            assert cleared[0] == cleared[1]
        assert sims[0].now == sims[1].now
        assert sims[0].pending_events() == sims[1].pending_events()
        assert logs[0] == logs[1]
    for sim in sims:
        sim.run()
    assert sims[0].now == sims[1].now
    assert logs[0] == logs[1]
    assert sims[0].events_processed == sims[1].events_processed
    assert sims[0].peek_time() == sims[1].peek_time()
    assert sims[0].peak_pending == sims[1].peak_pending


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    FINGERPRINTS.parent.mkdir(exist_ok=True)
    FINGERPRINTS.write_text(
        json.dumps(_all_fingerprints(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FINGERPRINTS}")
