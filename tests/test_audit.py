"""Resource-accounting audit layer (repro.audit).

Three layers of coverage:

* ledger unit tests — shadow bookkeeping, strict vs production mode, obs
  emission;
* seeded-bug regression tests — a deliberately unbalanced release / leaked
  registration / drifted counter must be caught by the ledger (the class of
  bug the clamp in ``NetworkModel.release_connections`` used to mask);
* end-to-end runs — strict audit stays silent across Terasort, TPC-H, and
  chaos campaigns, and the cluster drains (``open_connections == 0``).
"""

from __future__ import annotations

import pytest

from repro.api import RuntimeConfig, Simulation
from repro.audit import AuditError, AuditViolation, ResourceLedger
from repro.chaos import ChaosEngine
from repro.core.cache_worker import CacheWorker
from repro.core.policies import swift_policy
from repro.core.runtime import SwiftRuntime
from repro.obs.records import Category
from repro.obs.tracer import RecordingTracer
from repro.sim.cluster import Cluster
from repro.sim.config import CacheWorkerConfig, DiskConfig, NetworkConfig
from repro.sim.disk import DiskModel
from repro.sim.network import NetworkModel

MB = 1024**2


def _network(ledger: ResourceLedger | None = None) -> NetworkModel:
    network = NetworkModel(NetworkConfig(), n_machines=10)
    network.ledger = ledger
    return network


def _worker(
    capacity: int = 100 * MB, ledger: ResourceLedger | None = None
) -> CacheWorker:
    worker = CacheWorker(
        0, CacheWorkerConfig(memory_capacity=capacity), DiskModel(DiskConfig())
    )
    worker.ledger = ledger
    return worker


# ----------------------------------------------------------------------
# Ledger unit tests
# ----------------------------------------------------------------------

def test_balanced_connection_traffic_is_silent():
    ledger = ResourceLedger(strict=True)
    network = _network(ledger)
    network.register_connections(64)
    network.register_connections(36)
    network.release_connections(100)
    ledger.reconcile_network(network, "test")
    assert ledger.ok
    assert ledger.connections_outstanding == 0
    assert ledger.connections_registered_total == 100
    assert ledger.connections_released_total == 100


def test_double_release_raises_in_strict_mode():
    """The production clamp keeps the counter at zero, but the ledger must
    flag the second release instead of letting the clamp hide it."""
    ledger = ResourceLedger(strict=True)
    network = _network(ledger)
    network.register_connections(10)
    network.release_connections(10)
    with pytest.raises(AuditError) as excinfo:
        network.release_connections(10)
    assert excinfo.value.violation.resource == "connections"
    assert network.open_connections == 0  # clamp still applied on raise path


def test_double_release_recorded_in_production_mode():
    ledger = ResourceLedger(strict=False)
    network = _network(ledger)
    network.register_connections(10)
    network.release_connections(10)
    network.release_connections(10)  # no raise
    assert not ledger.ok
    assert len(ledger.violations) == 1
    assert ledger.violations[0].resource == "connections"
    assert network.open_connections == 0


def test_leaked_registration_caught_at_reconcile():
    ledger = ResourceLedger(strict=False)
    network = _network(ledger)
    network.register_connections(10)
    # Simulate a buggy path that forgot the ledger hook AND the release:
    # the authoritative counter diverges from the shadow.
    network.open_connections -= 4
    ledger.reconcile_network(network, "checkpoint")
    assert not ledger.ok
    assert network.open_connections == 6
    # After the resync, a clean second reconcile stays silent.
    before = len(ledger.violations)
    ledger.reconcile_network(network, "checkpoint2")
    assert len(ledger.violations) == before


def test_cache_counter_drift_caught():
    ledger = ResourceLedger(strict=False)
    worker = _worker(ledger=ledger)
    worker.write("job", "e0", 10 * MB, 1, now=0.0)
    worker.bytes_in_memory += 123  # seeded divergence
    ledger.reconcile_cache_worker(worker, "checkpoint")
    assert any(v.resource == "cache_memory" for v in ledger.violations)


def test_cache_release_balances():
    ledger = ResourceLedger(strict=True)
    worker = _worker(ledger=ledger)
    worker.write("jobA", "e0", 10 * MB, 1, now=0.0)
    worker.write("jobA", "e1", 15 * MB, 2, now=1.0)
    worker.consume("jobA", "e0")
    worker.consume("jobA", "e1")
    worker.consume("jobA", "e1")
    ledger.reconcile_cache_worker(worker, "end")
    assert ledger.ok
    assert worker.bytes_in_memory == 0
    assert len(worker) == 0


def test_violations_emit_obs_instants_and_counter():
    tracer = RecordingTracer()
    ledger = ResourceLedger(strict=False, tracer=tracer, now_fn=lambda: 42.0)
    network = _network(ledger)
    network.release_connections(5)
    instants = [r for r in tracer.records if r.cat == Category.AUDIT]
    assert len(instants) == 1
    assert instants[0].name == "audit.connections"
    assert instants[0].ts == 42.0
    assert tracer.metrics.counter("audit_violations").value == 1


def test_violation_str_and_dict_round_trip():
    violation = AuditViolation(
        resource="connections", message="boom", checkpoint="cp",
        expected=3, actual=5,
    )
    assert "connections" in str(violation) and "cp" in str(violation)
    payload = violation.to_dict()
    assert payload["expected"] == 3 and payload["actual"] == 5
    ledger = ResourceLedger(strict=False)
    assert ledger.summary()["violations"] == []


# ----------------------------------------------------------------------
# Exact byte counts and spill read-back
# ----------------------------------------------------------------------

def test_memory_counter_equals_entry_sum_after_many_partial_releases():
    """Many odd-sized writes and releases keep the O(1) counter equal to the
    entry-map sum exactly: integer byte counts do not drift."""
    worker = _worker()
    sizes = [34_953 * (2 * i + 1) for i in range(30)]
    for i, size in enumerate(sizes):
        worker.write("job", f"e{i}", size, 1, now=float(i))
    for i in range(0, 30, 2):
        worker.consume("job", f"e{i}")
    expected = sum(e.bytes_in_memory for e in worker.iter_entries())
    assert worker.bytes_in_memory == expected
    worker.release_job("job")
    assert worker.bytes_in_memory == 0


def test_spilled_read_back_total_never_exceeds_spilled_bytes():
    """Satellite 3: with consumers finishing between reads, the old
    ``bytes_on_disk / pending_consumers`` formula re-charged the remaining
    readers; the snapshotted share must keep the total at the spilled size."""
    worker = _worker(capacity=50 * MB)
    worker.write("job", "spilled", 40 * MB, 4, now=0.0)
    worker.write("job", "hot", 40 * MB, 1, now=1.0)  # forces the spill
    entry = worker.entry("job", "spilled")
    assert entry is not None and entry.bytes_on_disk == 40 * MB
    assert entry.spill_read_share == pytest.approx(10 * MB)
    for r in range(4):
        delay = worker.read("job", "spilled", now=2.0 + r)
        assert delay > 0.0
        # Shrink the consumer count between reads, as consume() does.
        entry.pending_consumers = max(1, entry.pending_consumers - 1)
    assert entry.bytes_read_back == 40 * MB
    # A straggler re-read after full promotion is free.
    assert worker.read("job", "spilled", now=10.0) == 0.0


def _run_corrupted_after_first_job(corrupt) -> AuditViolation:
    """Run a short and a long job on 16 machines under strict audit, with
    ``corrupt(runtime)`` as an event right after the short job's checkpoint,
    so that only the long job's checkpoint and ``run:end`` follow it.
    Returns the violation that stopped the run."""
    from conftest import as_job, chain_dag

    runtime = SwiftRuntime(Cluster.build(16, 4), swift_policy(), audit=True, audit_strict=True)
    runtime.submit(as_job(chain_dag("short", n_stages=1, tasks=1)))
    runtime.submit(as_job(chain_dag("long", n_stages=3, tasks=4)))
    order = []

    def on_job_done(result):
        order.append(result.job_id)
        if result.job_id == "short":
            runtime.sim.schedule(0.0, lambda: (order.append("corrupt"), corrupt(runtime)))

    runtime.on_job_done = on_job_done
    with pytest.raises(AuditError) as caught:
        runtime.run()
    assert order == ["short", "corrupt", "long"]
    return caught.value.violation


def test_untouched_idle_counter_corruption_caught_at_run_end():
    """Job checkpoints recount only the machines touched since the previous
    checkpoint.  A counter written behind the executor state machine's back,
    on a machine no job uses, escapes them and is caught by the full
    recount at ``run:end``."""

    def corrupt(runtime):
        runtime.cluster.machines[15].idle_count -= 1

    violation = _run_corrupted_after_first_job(corrupt)
    assert violation.resource == "executor_slots"
    assert violation.checkpoint == "run:end"


def test_untouched_cache_shadow_corruption_caught_at_run_end():
    """The same for a Cache Worker's shadow bytes, changed without a ledger
    hook on a worker no job writes."""
    from repro.audit.ledger import _CacheShadow

    def corrupt(runtime):
        runtime.ledger._cache[15] = _CacheShadow(bytes_in_memory=10**6)

    violation = _run_corrupted_after_first_job(corrupt)
    assert violation.resource == "cache_memory"
    assert violation.checkpoint == "run:end"


def test_oversized_write_snapshots_read_share():
    worker = _worker(capacity=10 * MB)
    worker.write("job", "huge", 40 * MB, 2, now=0.0)
    entry = worker.entry("job", "huge")
    assert entry is not None
    assert entry.bytes_in_memory == 0
    assert entry.bytes_on_disk == 40 * MB
    assert entry.spill_read_share == pytest.approx(20 * MB)
    assert worker.read("job", "huge", now=1.0) > 0.0
    assert worker.read("job", "huge", now=2.0) > 0.0
    assert worker.read("job", "huge", now=3.0) == 0.0  # fully promoted


# ----------------------------------------------------------------------
# End-to-end: strict audit across real runs
# ----------------------------------------------------------------------

def _drained(runtime: SwiftRuntime) -> None:
    assert runtime.cluster.network.open_connections == 0
    for machine in runtime.cluster.machines:
        worker = machine.cache_worker
        assert worker is not None
        assert len(worker) == 0
        assert worker.bytes_in_memory == 0


def test_terasort_under_strict_audit():
    from repro.workloads import terasort

    cluster = Cluster.build(8, 8)
    runtime = SwiftRuntime(cluster, swift_policy(), audit=True)
    result = runtime.execute(terasort.terasort_job(24, 24))
    assert result.completed
    assert runtime.ledger is not None and runtime.ledger.ok
    assert runtime.ledger.checkpoints_run > 0
    _drained(runtime)


def test_tpch_under_strict_audit():
    from repro.workloads import tpch

    cluster = Cluster.build(25, 32)
    runtime = SwiftRuntime(cluster, swift_policy(), audit=True)
    result = runtime.execute(tpch.query_job(13, scale=0.1))
    assert result.completed
    assert runtime.ledger is not None and runtime.ledger.ok
    _drained(runtime)


def test_chaos_campaign_with_audit_passes():
    engine = ChaosEngine(workload="terasort", profile="standard", audit=True)
    result = engine.run_seed(0, shrink=False)
    assert result.passed, [str(v) for v in result.violations]


def test_chaos_audit_invariant_catches_seeded_leak(monkeypatch):
    """Regression: a deliberately unbalanced release inside the runtime is
    surfaced by the resource-conservation invariant, not swallowed."""
    engine = ChaosEngine(workload="terasort", profile="light", audit=True)
    original = SwiftRuntime._on_stage_completed

    def buggy(self, sr):
        # Forget half the connections of every stage: a leak the clamp in
        # release_connections would otherwise hide forever.
        if sr.registered_connections:
            sr.registered_connections //= 2
        return original(self, sr)

    monkeypatch.setattr(SwiftRuntime, "_on_stage_completed", buggy)
    # The leak is seeded on purpose, so the failure-free baseline runs
    # without audit: the invariant under test must see it, not a
    # checkpoint of the baseline run.
    build = SwiftRuntime.__init__

    def unaudited(self, *args, audit=False, **kwargs):
        build(self, *args, audit=audit, **kwargs)

    monkeypatch.setattr(SwiftRuntime, "__init__", unaudited)
    engine._baselines.clear()
    result = engine.run_campaign(engine.generate(0))
    assert any(
        v.invariant == "resource-conservation" for v in result.violations
    ), [str(v) for v in result.violations]


def test_runtime_config_round_trips_audit_flags():
    config = RuntimeConfig(n_machines=4, audit=True, audit_strict=False)
    rebuilt = RuntimeConfig.from_dict(config.to_dict())
    assert rebuilt.audit is True
    assert rebuilt.audit_strict is False
    assert RuntimeConfig().to_dict()["audit"] is False


def test_simulation_facade_exposes_audit_summary():
    from repro.workloads import terasort

    config = RuntimeConfig(n_machines=8, executors_per_machine=8, audit=True)
    outcome = Simulation(config).run(terasort.terasort_job(16, 16))
    assert outcome.completed
    assert outcome.audit is not None
    assert outcome.audit["violations"] == []
    assert outcome.audit["checkpoints_run"] > 0
    baseline = Simulation(
        RuntimeConfig(n_machines=8, executors_per_machine=8)
    ).run(terasort.terasort_job(16, 16))
    assert baseline.audit is None
    # Auditing is observational: results are byte-identical.
    assert outcome.makespan == baseline.makespan
