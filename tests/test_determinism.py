"""Determinism guarantees of this reproduction.

Invariants the performance work must never break:

* The parallel cell harness returns byte-identical experiment rows for
  any worker count (``--jobs N`` is a wall-clock knob, not a semantic
  one).
* The runtime's finish ledger produces JobMetrics, busy intervals, admin
  stats and shuffle-recovery logs identical to the one-event-per-task
  oracle in ``tests/per_task_runtime.py``, for every policy, failure-free
  and under every failure kind.
* The array-backed event kernel behaves exactly like the object-heap
  oracle in ``tests/legacy_kernel.py`` under random interleavings.
* Tracing observes without steering: a run with a RecordingTracer
  attached produces byte-identical results to an untraced run, and the
  tracer's task spans reproduce the runtime's busy intervals exactly.
"""

from __future__ import annotations

import random

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

from per_task_runtime import PerTaskRuntime


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


def run_jobs(policy, jobs, failure_plan, ledger=True, tracer=None, reference=100.0):
    """``harness.run_jobs`` on the finish ledger or the per-task oracle."""
    runtime_cls = SwiftRuntime if ledger else PerTaskRuntime
    runtime = runtime_cls(
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


@pytest.mark.parametrize("kind", [None, *FailureKind], ids=lambda k: k.name if k else "none")
@pytest.mark.parametrize(
    "make_policy", [swift_policy, jetscope_policy, bubble_policy, restart_policy, spark_policy]
)
def test_ledger_matches_per_task_oracle(make_policy, kind):
    """The finish ledger is an optimization, not a model change: JobMetrics
    (timestamps, phase times, attempts, recovery counters), busy intervals,
    admin stats and the shuffle-recovery log must match the per-task-event
    oracle exactly, failure-free and under every failure kind."""
    seeds = (0,) if kind is None else (0, 1, 2)
    for seed in seeds:
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
        ledger_results, ledger_rt = run_jobs(
            make_policy(), jobs, plan, ledger=True, reference=reference
        )
        oracle_results, oracle_rt = run_jobs(
            make_policy(), jobs, plan, ledger=False, reference=reference
        )
        assert len(ledger_results) == len(oracle_results) == len(jobs)
        for ledger, oracle in zip(ledger_results, oracle_results):
            assert ledger.job_id == oracle.job_id
            assert (ledger.completed, ledger.failed) == (oracle.completed, oracle.failed)
            assert ledger.reason == oracle.reason
            assert ledger.metrics == oracle.metrics, (seed, ledger.job_id)
        assert ledger_rt.busy_intervals == oracle_rt.busy_intervals
        assert ledger_rt.admin.stats.__dict__ == oracle_rt.admin.stats.__dict__
        assert ledger_rt.shuffle_recovery_log == oracle_rt.shuffle_recovery_log


@pytest.mark.parametrize("make_policy", [swift_policy, restart_policy])
@pytest.mark.parametrize("with_failures", [False, True])
@pytest.mark.parametrize("ledger", [True, False])
def test_tracing_does_not_perturb_simulation(make_policy, with_failures, ledger):
    """Attaching a RecordingTracer is pure observation: results, busy
    intervals, and admin stats stay byte-identical, and the task-attempt
    spans reproduce the runtime's private busy_intervals list (the record
    stream the figure scripts now consume)."""
    jobs = traces.generate_trace(
        traces.TraceConfig(n_jobs=6, mean_interarrival=0.2)
    )
    plan = _failure_plan(jobs) if with_failures else None
    plain_results, plain_rt = run_jobs(
        make_policy(), jobs, failure_plan=plan, ledger=ledger
    )
    tracer = RecordingTracer()
    traced_results, traced_rt = run_jobs(
        make_policy(), jobs, failure_plan=plan, ledger=ledger, tracer=tracer,
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
