"""Determinism guarantees of this reproduction.

Invariants the performance work must never break:

* The parallel cell harness returns byte-identical experiment rows for
  any worker count (``--jobs N`` is a wall-clock knob, not a semantic
  one).
* The runtime's simulated outcomes (JobMetrics, executor busy intervals,
  admin stats and shuffle-recovery logs) hash to the fingerprints pinned
  in ``tests/data/runtime_fingerprints.json``, for every policy,
  failure-free and under every failure kind.  The busy intervals are the
  traced task-attempt spans (``RecordingTracer.task_intervals()``), which
  reproduce byte for byte the runtime-side list the fingerprints were
  first recorded from.  They were last regenerated when re-runs began
  to take their executor from the Resource Scheduler and their launch
  from the policy's launch model (13 machine-crash, process-restart and
  task-crash cases of Swift, Bubble and Spark moved).
  Regenerate them only with a change meant to move simulated outcomes,
  and say which cases moved and why::

      PYTHONPATH=src python tests/test_determinism.py
* The production event kernel behaves exactly like the object-heap
  oracle in ``tests/legacy_kernel.py`` under random interleavings.
* Tracing observes without steering: a run with a RecordingTracer
  attached produces byte-identical results and admin stats to an
  untraced run, and every finished task's timing has its task span.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.baselines import bubble_policy, jetscope_policy, restart_policy, spark_policy
from repro.core.policies import swift_policy
from repro.obs import RecordingTracer
from repro.experiments import figures
from repro.experiments.parallel import clear_memory_cache, set_default_jobs
from repro.sim.failures import FailureKind, sample_trace_failures
from repro.workloads import traces

from conftest import kind_plan, run_jobs, trace_jobs

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


_POLICIES = (swift_policy, jetscope_policy, bubble_policy, restart_policy, spark_policy)
_KINDS = (None, *FailureKind)
_SEEDS = (0, 1, 2)


def _case_id(make_policy, kind) -> str:
    return f"{make_policy.__name__}-{kind.name if kind else 'none'}"


def runtime_fingerprint(make_policy, kind, seed) -> str:
    """sha256 of everything a run observably produces: per-job results
    (completed/failed/reason and the full ``JobMetrics`` repr, task timings
    included), traced busy intervals, admin stats and the shuffle-recovery
    log."""
    jobs = trace_jobs(seed)
    plan, reference = None, 100.0
    if kind is not None:
        plan = kind_plan(jobs, kind, seed)
        # Fig. 15 method: failures strike at a fraction of each job's
        # own failure-free latency, so they land while it runs.
        baseline, _ = run_jobs(make_policy(), jobs, None)
        reference = {r.job_id: r.latency for r in baseline}
    tracer = RecordingTracer()
    results, runtime = run_jobs(
        make_policy(), jobs, plan, tracer=tracer, reference=reference
    )
    assert len(results) == len(jobs)
    assert tracer.dropped == 0
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr((
            result.job_id, result.completed, result.failed, result.reason,
            result.metrics,
        )).encode())
    digest.update(repr(tracer.task_intervals()).encode())
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
    """Attaching a RecordingTracer is pure observation: results and admin
    stats stay byte-identical, and every finished task's (plan_arrive,
    finish) appears among the task-attempt spans the figure scripts
    consume (aborted attempts add spans of their own)."""
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
    assert plain_rt.admin.stats.__dict__ == traced_rt.admin.stats.__dict__
    finished = Counter(
        (t.plan_arrive, t.finish)
        for result in traced_results
        for t in result.metrics.tasks
    )
    assert finished and not finished - Counter(tracer.task_intervals())


# ----------------------------------------------------------------------
# Differential kernel property: production kernel vs legacy oracle
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
        # A batch with one bad delay must queue nothing on either kernel.
        st.tuples(
            st.just("bad_batch"),
            st.lists(_DELAYS, max_size=12),
            st.sampled_from([-1.0, float("nan")]),
            st.integers(min_value=0, max_value=12),
        ),
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
    """The production kernel and the legacy object-heap oracle must be
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
        elif kind == "bad_batch":
            _, delays, bad, at = op
            delays = delays[:at] + [bad] + delays[at:]
            for sim, log in zip(sims, logs):
                with pytest.raises(ValueError):
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



@pytest.mark.parametrize("seed", [0, 1, 2])
def test_small_batches_onto_a_large_queue_pop_in_oracle_order(seed):
    """Gateway-sized batches (1-3 events) pushed onto a queue of at least
    1,000 live events, interleaved with steps and cancellations, run in the
    same order on the production kernel and the legacy oracle.  Delays and
    priorities repeat, so many entries tie on time and priority."""
    rng = random.Random(seed)
    sims = (Simulator(), LegacySimulator())
    logs: tuple[list, list] = ([], [])
    handles: tuple[list, list] = ([], [])

    def delay() -> float:
        return rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 50.0)])

    def single(tag: int) -> None:
        when, priority = delay(), rng.choice([0, 10, 20])
        for sim, log, hs in zip(sims, logs, handles):
            hs.append(sim.schedule(when, _recorder(log, tag, sim), priority=priority))

    tag = 0
    for _ in range(2_000):
        single(tag)
        tag += 1
    for _ in range(400):
        assert sims[0].pending_events() >= 1_000
        batch = [delay() for _ in range(rng.randint(1, 3))]
        priority = rng.choice([0, 10, 20])
        for sim, log in zip(sims, logs):
            sim.schedule_batch(
                [(d, _recorder(log, tag + i, sim), ()) for i, d in enumerate(batch)],
                priority=priority,
            )
        tag += len(batch)
        single(tag)
        tag += 1
        for _ in range(rng.randint(0, 2)):
            index = rng.randrange(len(handles[0]))
            for hs in handles:
                hs[index].cancel()
        for _ in range(rng.randint(1, 3)):
            assert sims[0].step() == sims[1].step()
        assert sims[0].pending_events() == sims[1].pending_events()
        assert logs[0] == logs[1]
    for sim in sims:
        sim.run()
    assert logs[0] == logs[1]
    assert len(logs[0]) == sims[1].events_processed
    assert sims[0].peak_pending == sims[1].peak_pending


def test_processing_jitter_draw_equals_uniform():
    """``_compute_ready_instances`` draws ``0.06 * random()`` where it once
    called ``uniform(0.0, 0.06)``: the same float from the same stream."""
    fast, reference = random.Random(2021), random.Random(2021)
    for _ in range(100_000):
        assert 0.06 * fast.random() == reference.uniform(0.0, 0.06)

if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    FINGERPRINTS.parent.mkdir(exist_ok=True)
    FINGERPRINTS.write_text(
        json.dumps(_all_fingerprints(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {FINGERPRINTS}")
