"""Tests for the chaos engine: campaigns, invariants, shrinking, repros."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.chaos import (
    Campaign,
    ChaosEngine,
    PROFILES,
    generate_campaign,
)
from repro.core.failure import RecoveryCase, RecoveryDecision


def test_campaign_generation_is_deterministic():
    a = generate_campaign(7, "terasort", PROFILES["standard"], 8)
    b = generate_campaign(7, "terasort", PROFILES["standard"], 8)
    assert a.to_dict() == b.to_dict()
    c = generate_campaign(8, "terasort", PROFILES["standard"], 8)
    assert a.to_dict() != c.to_dict()


def test_campaign_round_trips_through_json(tmp_path):
    campaign = generate_campaign(3, "terasort", PROFILES["hostile"], 8)
    path = tmp_path / "campaign.json"
    campaign.save(str(path))
    assert Campaign.load(str(path)).to_dict() == campaign.to_dict()


def test_campaign_events_make_a_valid_failure_plan():
    campaign = generate_campaign(11, "terasort", PROFILES["hostile"], 8)
    plan = campaign.to_failure_plan()
    # The events are the plan's specs, each validated at construction.
    assert plan.specs == campaign.events
    assert plan.specs is not campaign.events


#: sha256 of every generated campaign's failure plan and perturbations
#: (workloads x sorted profiles x seeds 0-199, 8 machines), taken when
#: campaigns still held their own event type: generation must keep
#: injecting exactly the same failures.
CAMPAIGN_PLANS_SHA256 = "2484693ddd3c39b1c800befa56e63ead3443e3f0b553db5c38bb73db3ecec46a"


def test_generated_campaigns_inject_the_pinned_failures():
    digest = hashlib.sha256()
    for workload in ("terasort", "tpch-q13", "trace"):
        for name in sorted(PROFILES):
            for seed in range(200):
                campaign = generate_campaign(seed, workload, PROFILES[name], 8)
                for part in (campaign.to_failure_plan(), campaign.perturbations):
                    digest.update(json.dumps(part.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == CAMPAIGN_PLANS_SHA256


#: A repro file saved before campaign events were ``FailureSpec``s: each
#: event lacks the ``at_time`` and ``job_id`` keys.
LEGACY_REPRO = Path(__file__).parent / "data" / "chaos_repro_legacy.json"


def test_legacy_repro_file_loads_and_replays(tmp_path, capsys):
    from repro.cli import main

    campaign = Campaign.load(str(LEGACY_REPRO))
    assert campaign == generate_campaign(10, "terasort", PROFILES["standard"], 8)
    assert main(["chaos", "--replay", str(LEGACY_REPRO), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"replay {LEGACY_REPRO}: PASS (makespan 22.7s, baseline 16.1s)\n"
    )


def test_unknown_workload_and_profile_are_rejected():
    with pytest.raises(ValueError):
        ChaosEngine(workload="nope")
    with pytest.raises(ValueError):
        ChaosEngine(profile="nope")


def test_terasort_sweep_passes_invariants():
    report = ChaosEngine("terasort", "standard").sweep(range(5), shrink=False)
    assert report.ok, report.format_summary()
    assert report.runs == 5
    assert report.passed == 5


def test_sweep_is_deterministic():
    first = ChaosEngine("terasort", "standard").sweep(range(3), shrink=False)
    second = ChaosEngine("terasort", "standard").sweep(range(3), shrink=False)
    assert first.to_dict() == second.to_dict()


def test_process_pool_sweep_matches_serial(monkeypatch):
    from repro.experiments import parallel

    # Two CPUs even on a one-CPU host, so jobs=2 takes the pool path.
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    parallel.clear_memory_cache()
    engine = ChaosEngine("terasort", "standard")
    serial = engine.sweep(range(3), jobs=1, shrink=False)
    pooled = engine.sweep(range(3), jobs=2, shrink=False)
    parallel.clear_memory_cache()
    assert parallel.execution_plan(3, jobs=2) == ("process-pool", 2)
    assert pooled.to_dict() == serial.to_dict()


def test_campaigns_degrade_but_recover():
    """Campaigns with destructive events finish slower than the baseline."""
    engine = ChaosEngine("terasort", "standard")
    slowed = 0
    for seed in range(5):
        result = engine.run_seed(seed, shrink=False)
        assert result.passed
        if result.makespan > result.baseline_makespan:
            slowed += 1
    assert slowed >= 1


def test_replay_from_saved_repro(tmp_path):
    engine = ChaosEngine("terasort", "standard")
    path = tmp_path / "repro.json"
    engine.generate(1).save(str(path))
    assert engine.replay(str(path)).passed


def test_shrink_rejects_passing_campaign():
    engine = ChaosEngine("terasort", "standard")
    with pytest.raises(ValueError):
        engine.shrink(engine.generate(0))


def _broken_plan_recovery(*args, **kwargs):
    """A recovery planner that always declares the failure harmless."""
    return RecoveryDecision(case=RecoveryCase.INTRA_GRAPHLET, noop=True)


def test_mutation_broken_recovery_caught_and_shrunk(tmp_path, monkeypatch):
    """Deliberately break recovery: the invariants must catch it and the
    shrinker must reduce the campaign to a tiny replayable repro."""
    import repro.core.runtime as runtime_module

    monkeypatch.setattr(runtime_module, "plan_recovery", _broken_plan_recovery)
    engine = ChaosEngine("terasort", "standard", out_dir=str(tmp_path))
    result = None
    for seed in range(10):
        candidate = engine.run_seed(seed, shrink=True)
        if not candidate.passed:
            result = candidate
            break
    assert result is not None, "no campaign caught the broken recovery"
    assert any(v.invariant == "terminal-state" for v in result.violations)
    # Shrinking converged on a minimal repro.
    assert result.shrunk is not None
    assert len(result.shrunk.events) <= 3
    assert not engine.run_campaign(result.shrunk).passed
    # The JSON repro file replays to the same failure ...
    assert result.repro_path is not None
    assert not engine.replay(result.repro_path).passed
    # ... and the obs trail of failure/recovery spans was written.
    assert result.trace_path is not None
    with open(result.trace_path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    assert records


SHUFFLE_PROFILES = (
    "cache-worker-loss-during-shuffle",
    "mode-switch-under-crash",
    "replica-placement-skew",
)


def test_shuffle_v2_profiles_registered():
    from repro.sim.failures import FailureKind

    for name in SHUFFLE_PROFILES:
        profile = PROFILES[name]
        assert profile.name == name
        assert generate_campaign(0, "terasort", profile, 8).events
    # The failover profile is dominated by Cache Worker losses.
    weights = dict(PROFILES["cache-worker-loss-during-shuffle"].kind_weights)
    assert max(weights, key=weights.get) == FailureKind.CACHE_WORKER_LOSS


@pytest.mark.parametrize("profile", SHUFFLE_PROFILES)
def test_shuffle_v2_profiles_pass_invariants(profile):
    report = ChaosEngine("terasort", profile).sweep(range(3), shrink=False)
    assert report.ok, report.format_summary()
    assert report.passed == 3


def _runtime_with_log(records):
    from repro.core.policies import swift_policy
    from repro.core.runtime import SwiftRuntime
    from repro.sim.cluster import Cluster

    runtime = SwiftRuntime(Cluster.build(2, 4), swift_policy())
    runtime.shuffle_recovery_log.extend(records)
    return runtime


def _campaign(events):
    return Campaign(seed=0, workload="terasort", profile="light",
                    events=events)


def test_bounded_shuffle_recovery_invariant():
    from repro.chaos.invariants import check_bounded_shuffle_recovery
    from repro.sim.failures import FailureKind, FailureSpec

    loss = FailureSpec(kind=FailureKind.CACHE_WORKER_LOSS,
                       at_fraction=0.5, machine_id=0)
    failover = {"job_id": "j", "edge_key": "a->b", "machine_id": 0,
                "survivors": 1, "action": "failover"}
    rerun = {"job_id": "j", "edge_key": "a->b", "machine_id": 0,
             "survivors": 0, "action": "rerun"}
    # Legitimate decisions pass.
    ok = check_bounded_shuffle_recovery(
        _campaign([loss]), _runtime_with_log([failover, rerun]))
    assert ok == []
    # A rerun despite surviving replicas is wasted recovery.
    bad_rerun = dict(rerun, survivors=1)
    out = check_bounded_shuffle_recovery(
        _campaign([loss]), _runtime_with_log([bad_rerun]))
    assert [v.invariant for v in out] == ["bounded-shuffle-recovery"]
    # A failover with no survivor cannot have served the share.
    bad_failover = dict(failover, survivors=0)
    out = check_bounded_shuffle_recovery(
        _campaign([loss]), _runtime_with_log([bad_failover]))
    assert len(out) == 1
    # Shuffle recovery without any injected Cache Worker loss is spurious.
    out = check_bounded_shuffle_recovery(
        _campaign([]), _runtime_with_log([failover]))
    assert len(out) == 1


def _failed(reason):
    from repro.core.metrics import JobMetrics
    from repro.core.runtime import JobResult

    return JobResult(job_id="j", policy_name="swift", metrics=JobMetrics(job_id="j"),
                     completed=False, failed=True, reason=reason)


def test_unschedulable_failure_is_explained_by_a_machine_crash():
    from repro.chaos.invariants import check_failure_reasons
    from repro.sim.failures import FailureKind, FailureSpec

    crash = FailureSpec(kind=FailureKind.MACHINE_CRASH, at_fraction=0.5,
                        machine_id=0)
    result = _failed("unschedulable: unit 1 needs 57 executors (gang); "
                     "live machines hold 48")
    assert check_failure_reasons(_campaign([crash]), [result]) == []


@pytest.mark.parametrize("kind", ["task_crash", "machine_quarantine", None])
def test_unschedulable_failure_without_a_machine_crash_is_a_violation(kind):
    """Only a dead machine shrinks the live pool; a quarantined one may
    come back, and a crashed task or process frees its executor."""
    from repro.chaos.invariants import check_failure_reasons
    from repro.sim.failures import FailureKind, FailureSpec

    events = [] if kind is None else [
        FailureSpec(kind=FailureKind(kind), at_fraction=0.5, machine_id=0)
    ]
    result = _failed("unschedulable: unit 1 needs 57 executors (gang); "
                     "live machines hold 64")
    out = check_failure_reasons(_campaign(events), [result])
    assert [v.invariant for v in out] == ["unexpected-job-failure"]


def test_cli_chaos_sweep(tmp_path, capsys):
    from repro.cli import main

    code = main(["chaos", "--runs", "2", "--workload", "terasort",
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "passed=2" in out


def test_chaos_report_is_exported_by_the_api():
    from repro.api import ChaosEngine as ApiEngine, ChaosReport

    report = ApiEngine("terasort", "light").sweep(range(2), shrink=False)
    assert isinstance(report, ChaosReport)
    assert report.ok
    payload = report.to_dict()
    assert payload["runs"] == 2
    assert json.dumps(payload)  # JSON-serializable end to end


def test_job_finish_time_invariant():
    """A completed job must finish exactly when its last task does."""
    from dataclasses import replace

    from repro.baselines import spark_policy
    from repro.chaos.invariants import check_job_finish_times
    from repro.core.runtime import SwiftRuntime
    from repro.sim.cluster import Cluster
    from repro.sim.failures import FailureKind, FailurePlan, FailureSpec

    from conftest import as_job, chain_dag

    # A cold-started task crashes while launching; its re-run draws a
    # shorter cold start and finishes before the first attempt would have.
    spec = FailureSpec(kind=FailureKind.TASK_CRASH, stage="S1", task_index=0,
                       at_fraction=0.01)
    runtime = SwiftRuntime(Cluster.build(1, 4), spark_policy(),
                           failure_plan=FailurePlan([spec]), reference_duration=10.0)
    result = runtime.execute(as_job(chain_dag("early", tasks=1, n_stages=1)))
    assert result.metrics.task_reruns == 1
    assert check_job_finish_times([result]) == []
    late = replace(result, metrics=replace(
        result.metrics, finish_time=result.metrics.finish_time + 1.0))
    out = check_job_finish_times([late])
    assert [v.invariant for v in out] == ["job-finish-time"]
