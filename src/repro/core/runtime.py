"""The execution runtime: jobs in, per-task timings out.

This module ties the substrate (event engine, cluster, network/disk models)
to the paper's mechanisms (graphlet partitioning, gang scheduling, adaptive
shuffle, Cache Workers, fine-grained recovery).  The same runtime executes
Swift and every baseline; an :class:`~repro.core.policies.ExecutionPolicy`
selects the behaviour.

Execution model
---------------
Tasks move through the four phases of Section V-C1 — launch, shuffle read,
record processing, shuffle write.  Within a gang-scheduled unit, stages
connected by pipeline edges stream: a consumer's completion is bounded below
by its producers' completion plus a flush latency, and its ``data_arrive``
(for the IdleRatio metric) is its producers' first output.  Barrier inputs —
and *all* cross-unit inputs — become available only when the producer stage
completes.  Task finish times are computed analytically per stage, and
each finish is one kernel event: stage completion, the next gang grant and
recovery all start from it, as they start from an executor's finish report
in the paper (Sections II-B and IV).  Each task holds its one live finish
event, which recovery cancels and reschedules; :func:`_task_times` is the
one rule that times a task.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..audit.ledger import ResourceLedger
from ..obs.records import Category
from ..obs.tracer import NULL_TRACER, Tracer
from ..sim.cluster import Cluster, Executor, ExecutorState
from ..sim.engine import Event, Simulator
from ..sim.failures import FailureKind, FailurePlan, FailureSpec
from .admin import SwiftAdmin
from .cache_worker import CacheWorker
from .dag import Edge, EdgeMode, Job, JobDAG
from .failure import detection_delay, plan_recovery
from .graphlet import GraphletGraph
from .metrics import JobMetrics, TaskTiming
from .policies import ExecutionPolicy, FailureRecovery, LaunchModel, SubmissionOrder
from .scheduler import (
    Grant,
    ReqItem,
    ResourceScheduler,
    SchedulingImpossibleError,
    pick_locality_machines,
    pick_replica_machines,
)
from .shuffle import (
    ModeDecision,
    ShuffleCostModel,
    ShuffleModeController,
    ShuffleScheme,
    plan_partition_merge,
    resolve_scheme,
)


def _task_times(
    ready: float, barrier: float, floor: float, first_input: float,
    flush: float, read: float, proc: float, write: float,
) -> tuple[float, float]:
    """``(start, finish)`` of one attempt: it starts at the later of
    ``ready`` and its barrier inputs, then reads, processes and writes.  A
    streamed consumer (``floor > 0``) finishes no earlier than ``floor +
    flush``, and its start is then raised to its first streamed input."""
    start = ready if ready > barrier else barrier
    finish = start + read + proc + write
    if floor > 0:
        floor += flush
        if finish < floor:
            finish = floor
        if start < first_input:
            start = first_input
    return start, finish


class TaskState(enum.Enum):
    """Lifecycle of one task instance."""
    PENDING = "pending"
    DISPATCHED = "dispatched"
    #: A re-run waiting for the scheduler to grant it an executor.
    WAITING = "waiting"
    FINISHED = "finished"
    DEAD = "dead"


class UnitState(enum.Enum):
    """Lifecycle of one schedulable unit (graphlet)."""
    PENDING = "pending"
    REQUESTED = "requested"
    GRANTED = "granted"
    DONE = "done"


@dataclass(slots=True)
class TaskInstance:
    """One logical task; attempts mutate it in place (see module docs)."""

    stage_run: "StageRun"
    index: int
    attempt: int = 0
    state: TaskState = TaskState.PENDING
    executor: Optional[Executor] = None
    plan_arrive: float = math.inf
    data_arrive: float = math.inf
    #: The current attempt's ``ready`` input to :func:`_task_times`.
    ready: float = math.inf
    start: float = math.inf
    finish_time: float = math.inf
    launch: float = 0.0
    read: float = 0.0
    proc: float = 0.0
    write: float = 0.0
    #: The attempt's queued finish event (``None`` once fired or cancelled).
    finish_event: Optional[Event] = None


class StageRun:
    """Execution state of one stage of one job attempt."""

    def __init__(self, job_run: "JobRun", stage_name: str, unit_id: int) -> None:
        self.job_run = job_run
        self.stage = job_run.dag.stage(stage_name)
        #: The stage name.
        self.name = stage_name
        self.unit_id = unit_id
        self.instances = [TaskInstance(self, i) for i in range(self.stage.task_count)]
        self.prepared = False
        self.computed = False
        self.completed = False
        self.n_computed = 0
        self.n_finalized = 0
        # Stage-level timing constants (filled by _prepare_stage).
        self.barrier_avail = 0.0
        self.pipeline_floor = 0.0
        self.pipeline_first_input = 0.0
        self.scan_read = 0.0
        self.read_cost = 0.0
        self.write_cost = 0.0
        self.has_inputs = False
        self.registered_connections = 0
        # Estimates maintained as instances compute/finalize.
        self.finish_estimate = 0.0
        self.first_output = math.inf
        self.earliest_read_done = math.inf

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StageRun {self.job_run.job_id}/{self.name} "
            f"{self.n_finalized}/{len(self.instances)}>"
        )


class UnitRun:
    """Execution state of one schedulable unit (graphlet)."""

    def __init__(self, job_run: "JobRun", graphlet_id: int, stage_names: list[str]) -> None:
        self.job_run = job_run
        self.graphlet_id = graphlet_id
        # Keep unit stages in DAG topological order for deterministic compute.
        self.stage_names = sorted(stage_names, key=job_run.topo_index.__getitem__)
        self.state = UnitState.PENDING
        self.request: Optional[ReqItem] = None

    def stage_runs(self) -> list[StageRun]:
        """This unit's stage runs, in topological order."""
        return [self.job_run.stage_runs[name] for name in self.stage_names]

    def task_count(self) -> int:
        """Executors the unit's gang needs."""
        return sum(sr.stage.task_count for sr in self.stage_runs())

    def all_completed(self) -> bool:
        """True when every stage of the unit has completed."""
        return all(sr.completed for sr in self.stage_runs())


@dataclass
class JobResult:
    """Outcome of one job execution."""

    job_id: str
    policy_name: str
    metrics: JobMetrics
    completed: bool = True
    failed: bool = False
    #: Human-readable cause when ``failed`` (retry budget, app error, ...).
    reason: str = ""

    @property
    def latency(self) -> float:
        """End-to-end latency from submission to completion."""
        return self.metrics.latency


class JobRun:
    """All runtime state for one attempt of one job."""

    def __init__(
        self,
        job: Job,
        graphlets: GraphletGraph,
        metrics: JobMetrics,
        attempt: int = 0,
    ) -> None:
        self.job = job
        self.dag: JobDAG = job.dag
        #: ``job.job_id``, read once per job instead of once per task.
        self.job_id = job.job_id
        #: Position of each stage in the DAG's topological order.
        self.topo_index = {name: i for i, name in enumerate(self.dag.topo_order())}
        self.graphlets = graphlets
        self.metrics = metrics
        self.attempt = attempt
        self.aborted = False
        self.failed = False
        self.done = False
        self.stage_runs: dict[str, StageRun] = {}
        self.units: dict[int, UnitRun] = {}
        # Per-edge Cache Worker state, keyed ``"src->dst"``: it belongs to
        # this attempt, so a restarted attempt starts with none of it.
        #: Shuffle mode pinned when a cross-unit edge is first resolved, so
        #: the producer's store and the consumer's costing agree.
        self.edge_mode_decisions: dict[str, ModeDecision] = {}
        #: Replica groups of machines whose Cache Workers hold an edge's
        #: data: ``groups[i][0]`` holds one producer machine's share, later
        #: members are its replicas (``ShuffleConfig.replication_factor``).
        #: A share survives a Cache Worker loss iff its group keeps a holder.
        self.edge_cw_machines: dict[str, list[list[int]]] = {}
        #: Extra data-availability delay from producer-side LRU spills.
        self.edge_extra_delay: dict[str, float] = {}
        #: Every machine whose Cache Worker holds data of this attempt.
        self.cw_machines: set[int] = set()
        for graphlet in graphlets.graphlets:
            unit = UnitRun(self, graphlet.graphlet_id, list(graphlet.stage_names))
            self.units[graphlet.graphlet_id] = unit
            for name in graphlet.stage_names:
                self.stage_runs[name] = StageRun(self, name, graphlet.graphlet_id)


class RuntimeDrainedError(RuntimeError):
    """A job was submitted to a runtime whose ``run()`` already drained.

    Once ``run()`` returns with an empty event queue the kernel will never
    execute another event, so a late ``submit`` would silently do nothing.
    Build a fresh :class:`SwiftRuntime` (or submit everything before
    running) instead.
    """


class SwiftRuntime:
    """Event-driven executor of jobs under a policy on a simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        policy: ExecutionPolicy,
        failure_plan: Optional[FailurePlan] = None,
        reference_duration: "float | dict[str, float]" = 100.0,
        tracer: Optional[Tracer] = None,
        audit: bool = False,
        audit_strict: bool = True,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        #: Structured tracing hook (repro.obs); the null tracer keeps every
        #: emission site on a single pre-hoisted boolean check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The calibration of the run is the cluster's: one config drives
        #: the network and disk models and everything else.
        self.config = cluster.config
        self.sim = Simulator(seed=self.config.seed, tracer=self.tracer)
        self.admin = SwiftAdmin(self.config.admin, cluster.n_machines)
        self.scheduler = ResourceScheduler(cluster)
        self.shuffle_model = ShuffleCostModel(self.config, cluster.network, cluster.disk)
        #: Per-edge adaptive mode switching (shuffle v2): observes realized
        #: cache pressure and connection-setup cost and re-resolves the
        #: scheme for stages that have not started yet.  Decisions are
        #: memoized per edge on the job attempt
        #: (``JobRun.edge_mode_decisions``).
        self.mode_controller = ShuffleModeController(self.config.shuffle)
        #: Structured record of every shuffle-loss recovery action —
        #: ``{"job_id", "edge_key", "machine_id", "survivors", "action"}``
        #: with action ``"failover"`` (replica served the share, no rerun)
        #: or ``"rerun"`` (share unrecoverable, producer re-executed).  The
        #: ``bounded-shuffle-recovery`` chaos invariant audits this log.
        self.shuffle_recovery_log: list[dict] = []
        self.failure_plan = failure_plan or FailurePlan()
        for spec in self.failure_plan.specs:
            if (spec.validate().machine_id or 0) >= len(cluster.machines):
                raise ValueError(f"machine_id={spec.machine_id} is past the cluster's "
                                 f"{len(cluster.machines)} machines")
        #: Non-failure job duration used to resolve ``at_fraction`` failures;
        #: either one global value or a per-job mapping (as Fig. 15 needs,
        #: where failures strike at a fraction of each job's own runtime).
        self.reference_duration = reference_duration
        self.job_runs: dict[str, JobRun] = {}
        self.results: list[JobResult] = []
        self._request_units: dict[int, UnitRun] = {}
        #: Re-runs waiting for a one-executor grant, by request id:
        #: ``(instance, not_before, relaunch, then)`` (see ``_rerun_instance``).
        self._waiting_reruns: dict[
            int, tuple[TaskInstance, float, float, Callable[[float], None]]
        ] = {}
        #: Set once ``run()`` returns with the event queue empty; late
        #: submissions then raise :class:`RuntimeDrainedError` instead of
        #: queueing events that would never execute.
        self._drained = False
        #: Completion hook for the service gateway: called with each
        #: :class:`JobResult` right after it is appended to ``results``
        #: (both successful and failed terminations).  ``sim.now`` is the
        #: completion time, so hooks may schedule follow-up events from it.
        self.on_job_done: Optional[Callable[[JobResult], None]] = None
        for machine in cluster.machines:
            if machine.cache_worker is None:
                machine.cache_worker = CacheWorker(
                    machine.machine_id, self.config.cache_worker, cluster.disk
                )
            machine.cache_worker.tracer = self.tracer
        #: Resource-accounting ledger (:mod:`repro.audit`), built when
        #: ``audit=True``; ``None`` keeps every hook site on a single
        #: ``is not None`` check.
        self.ledger: Optional[ResourceLedger] = None
        if audit:
            self.ledger = ResourceLedger(strict=audit_strict, tracer=self.tracer)
        if self.ledger is not None:
            self.ledger.bind_clock(lambda: self.sim.now)
            cluster.network.ledger = self.ledger
            for machine in cluster.machines:
                machine.cache_worker.ledger = self.ledger  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Queue a job for execution at its ``submit_time``."""
        self._check_not_drained()
        self.sim.schedule_at(job.submit_time, self._on_job_submitted, job, 0)

    def submit_all(self, jobs: list[Job]) -> None:
        """Queue a batch of jobs at their respective submit times.

        One ``schedule_batch`` call: every submit time is checked before any
        job is queued, so a batch with a job in the past queues none of it.
        """
        self._check_not_drained()
        now = self.sim.now
        self.sim.schedule_batch(
            [(job.submit_time - now, self._on_job_submitted, (job, 0)) for job in jobs]
        )

    def _check_not_drained(self) -> None:
        if self._drained:
            raise RuntimeDrainedError(
                "cannot submit: this runtime's run() already drained its event"
                " queue, so new submissions would never execute; build a fresh"
                " SwiftRuntime or submit every job before calling run()"
            )

    def run(self, until: Optional[float] = None) -> list[JobResult]:
        """Run the simulation to completion and return per-job results."""
        self.sim.run(until=until)
        # Drained with requests still queued: reclaim the executors held by
        # tasks that wait for inputs, for as long as that starts a task.
        while (
            self.sim.pending_events() == 0
            and self._yield_idle_executors()
            and self.sim.pending_events()
        ):
            self.sim.run(until=until)
        if self.ledger is not None:
            # Drained-state assertions only make sense once every submitted
            # job has terminated (``until`` may stop mid-flight).
            drained = all(
                jr.done or jr.failed for jr in self.job_runs.values()
            )
            self.ledger.reconcile(
                self.cluster, "run:end", expect_drained=drained
            )
        if self.sim.pending_events() == 0:
            self._drained = True
        return self.results

    def execute(self, job: Job) -> JobResult:
        """Convenience: submit one job, run, return its result."""
        self.submit(job)
        self.run()
        for result in self.results:
            if result.job_id == job.job_id:
                return result
        raise RuntimeError(f"job {job.job_id} did not complete")

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def _on_job_submitted(self, job: Job, attempt: int) -> None:
        graphlets = self.policy.partitioner.partition(job.dag)
        if not self.policy.gang:
            for graphlet in graphlets.graphlets:
                if len(graphlet.stage_names) != 1:
                    raise SchedulingImpossibleError(
                        "wave (non-gang) execution requires single-stage units"
                    )
        # Partitioning and job admission cost controller time.
        self.admin.admit_ops(self.sim.now, len(job.dag) + 1)
        if self.tracer.enabled:
            self.tracer.instant(
                Category.JOB,
                "job.restarted" if attempt else "job.submitted",
                self.sim.now,
                job.job_id,
                graphlets=len(graphlets),
                attempt=attempt,
            )
        if attempt == 0:
            metrics = JobMetrics(
                job_id=job.job_id,
                submit_time=self.sim.now,
                tenant=job.tenant,
                deadline=job.deadline,
            )
            self.job_runs[job.job_id] = JobRun(job, graphlets, metrics, attempt)
            self._schedule_failures(job)
        else:
            old = self.job_runs[job.job_id]
            self.job_runs[job.job_id] = JobRun(job, graphlets, old.metrics, attempt)
        self._try_submit_units(self.job_runs[job.job_id])

    def _job_reference(self, job_id: str) -> float:
        if isinstance(self.reference_duration, dict):
            return self.reference_duration.get(job_id, 100.0)
        return self.reference_duration

    def _schedule_failures(self, job: Job) -> None:
        reference = self._job_reference(job.job_id)
        for spec in self.failure_plan.for_job(job.job_id):
            if spec.stage in job.dag.stages and spec.task_index is not None:
                count = job.dag.stages[spec.stage].task_count
                if spec.task_index >= count:
                    raise ValueError(f"{spec}: task_index={spec.task_index} is past stage "
                                     f"{spec.stage!r}'s {count} tasks")
            at = job.submit_time + spec.resolve_time(reference)
            self.sim.schedule_at(max(at, self.sim.now), self._on_failure, spec, job.job_id)

    def _unit_inputs_ready(self, unit: UnitRun) -> bool:
        """All cross-unit edges into the unit have completed producers."""
        job_run = unit.job_run
        for name in unit.stage_names:
            for edge in job_run.dag.in_edges(name):
                producer_sr = job_run.stage_runs[edge.src]
                if producer_sr.unit_id != unit.graphlet_id and not producer_sr.completed:
                    return False
        return True

    def _unit_inputs_started(self, unit: UnitRun) -> bool:
        """All cross-unit producers are at least running (eager submission:
        Bubble Execution acquires executors "long before the input data
        arrive" — while producers execute — not at job admission)."""
        job_run = unit.job_run
        for name in unit.stage_names:
            for edge in job_run.dag.in_edges(name):
                producer_sr = job_run.stage_runs[edge.src]
                if producer_sr.unit_id == unit.graphlet_id:
                    continue
                producer_unit = job_run.units[producer_sr.unit_id]
                if producer_unit.state not in (UnitState.GRANTED, UnitState.DONE):
                    return False
        return True

    def _try_submit_units(self, job_run: JobRun) -> None:
        if job_run.aborted or job_run.failed:
            return
        for unit in job_run.units.values():
            if unit.state != UnitState.PENDING:
                continue
            if self.policy.submission == SubmissionOrder.CONSERVATIVE:
                if not self._unit_inputs_ready(unit):
                    continue
            elif not self._unit_inputs_started(unit):
                continue
            n = unit.task_count()
            locality: tuple[int, ...] = ()
            if any(
                job_run.dag.stage(name).scan_bytes_per_task > 0
                for name in unit.stage_names
            ):
                locality = pick_locality_machines(self.cluster, n)
            item = self._request(unit, n, locality)
            unit.request = item
            unit.state = UnitState.REQUESTED
            self._request_units[item.request_id] = unit
            if self.tracer.enabled:
                self.tracer.instant(
                    Category.UNIT, "unit.requested", self.sim.now,
                    job_run.job_id, scope=f"unit{unit.graphlet_id}",
                    executors=n,
                )
        self._pump_scheduler()

    def _request(
        self, unit: UnitRun, n: int, locality: tuple[int, ...] = ()
    ) -> ReqItem:
        """File a request for ``n`` of ``unit``'s executors (one that can
        never be granted fails its job, see :meth:`_check_schedulable`).  A
        unit's later requests (a re-run, a task that lost its executor
        before it ran) take its first request's place in the queue, ahead
        of the units requested after it, which may be waiting for this
        unit's output."""
        job = unit.job_run.job
        item = self.scheduler.request(
            job_id=job.job_id,
            unit_id=unit.graphlet_id,
            n_executors=n,
            locality=locality,
            now=self.sim.now,
            gang=self.policy.gang,
            place_of=unit.request,
        )
        self._check_schedulable((item,))
        return item

    def _check_schedulable(self, items: Iterable[ReqItem]) -> None:
        """A request in ``items`` that needs more executors than live
        machines hold can never be granted: it fails its job, as an event
        at the current time, so the step that filed or stranded it
        finishes first."""
        for item in self.scheduler.unschedulable(items):
            self.sim.schedule_at(self.sim.now, self._fail_unschedulable, item)

    def _fail_unschedulable(self, item: ReqItem) -> None:
        if item.cancelled:  # the job restarted or failed meanwhile
            return
        self._fail_job(
            self.job_runs[item.job_id],
            f"unschedulable: unit {item.unit_id} needs {item.remaining} "
            f"executors ({'gang' if item.gang else 'waves'}); live machines "
            f"hold {self.cluster.live_executors()}",
        )

    def _pump_scheduler(self) -> None:
        for grant in self.scheduler.schedule():
            request_id = grant.request.request_id
            waiting = self._waiting_reruns.pop(request_id, None)
            if waiting is not None:
                self._start_rerun(*waiting, grant.executors[0])
                continue
            unit = self._request_units.get(request_id)
            if unit is None:
                for executor in grant.executors:
                    executor.release()
                continue
            self._on_unit_granted(unit, grant)

    # ------------------------------------------------------------------
    # Dispatch and timing computation
    # ------------------------------------------------------------------
    def _on_unit_granted(self, unit: UnitRun, grant: Grant) -> None:
        job_run = unit.job_run
        if job_run.aborted or job_run.failed:
            for executor in grant.executors:
                executor.release()
            return
        unit.state = UnitState.GRANTED
        if self.tracer.enabled:
            self.tracer.instant(
                Category.UNIT, "unit.granted", self.sim.now,
                job_run.job_id, scope=f"unit{unit.graphlet_id}",
                executors=len(grant.executors),
            )
        if self.policy.submission == SubmissionOrder.EAGER:
            # Downstream bubbles become submittable once this one runs.
            self._try_submit_units(job_run)
        pending = [
            inst
            for sr in unit.stage_runs()
            for inst in sr.instances
            if inst.state == TaskState.PENDING and inst.executor is None
        ]
        batch = pending[: len(grant.executors)]
        times = self.admin.dispatch_times(self.sim.now, len(batch))
        self._dispatch_batch(job_run, batch, grant.executors, times)
        if times:
            # dispatch_times is strictly increasing, so only the first
            # arrival can move the job's start time.
            metrics = job_run.metrics
            first = times[0]
            if metrics.start_time == 0.0 or first < metrics.start_time:
                metrics.start_time = first
        self._try_compute_stages(unit)

    def _dispatch_batch(
        self,
        job_run: JobRun,
        batch: list["TaskInstance"],
        executors: list[Executor],
        times: list[float],
    ) -> None:
        """Per-task dispatch loop with the executor state machine inlined.

        Executors arrive ASSIGNED from the scheduler, so ASSIGNED->RUNNING
        never touches idle counters.  Each task's launch comes from
        :meth:`_launch`, in task order.
        """
        launch = self._launch
        running = ExecutorState.RUNNING
        dispatched = TaskState.DISPATCHED
        plan_cached = self.admin.plan_cached
        stats = self.admin.stats
        job_id = job_run.job_id
        last_sr = None
        for inst, executor, arrive in zip(batch, executors, times):
            executor.current_task = inst
            executor.state = running
            inst.executor = executor
            inst.state = dispatched
            inst.plan_arrive = arrive
            inst.launch = launch()
            sr = inst.stage_run
            if sr is last_sr:
                # Same (job, stage) key as the previous instance: a repeat
                # lookup is by definition a cache hit, so skip the set probe.
                stats.plan_cache_hits += 1
            else:
                last_sr = sr
                plan_cached(job_id, sr.name)

    def _launch(self) -> float:
        """One task attempt's launch time under the policy's launch model:
        the prelaunched overhead, or a cold start with one uniform jitter
        draw from the simulator rng.  First runs and re-runs both call it."""
        cfg = self.config.executor
        if self.policy.launch == LaunchModel.PRELAUNCHED:
            return cfg.prelaunched_overhead
        launch = cfg.coldstart_mean + self.sim.rng.uniform(
            -cfg.coldstart_jitter, cfg.coldstart_jitter
        )
        return launch if launch > 0.0 else 0.0

    def _try_compute_stages(self, unit: UnitRun) -> None:
        """Prepare and compute every stage of the unit whose inputs are known."""
        for sr in unit.stage_runs():
            if sr.computed:
                continue
            if not self._stage_inputs_known(sr):
                continue
            if not sr.prepared:
                self._prepare_stage(sr)
            # Under wave execution only a prefix is dispatched so far.
            self._compute_ready_instances(sr)

    def _stage_inputs_known(self, sr: StageRun) -> bool:
        job_run = sr.job_run
        for edge in job_run.dag.in_edges(sr.name):
            producer = job_run.stage_runs[edge.src]
            if producer.unit_id != sr.unit_id:
                if not producer.completed:
                    return False
            elif not producer.computed:
                return False
        return True

    def _edge_streams(self, job_run: JobRun, edge: Edge, consumer_sr: StageRun) -> bool:
        """True when ``edge`` streams into ``consumer_sr`` (no barrier wait)."""
        producer = job_run.stage_runs[edge.src]
        if producer.unit_id != consumer_sr.unit_id:
            return False
        if job_run.dag.edge_mode(edge) == EdgeMode.BARRIER:
            return False
        return self.policy.pipelined_execution

    def _cache_utilization(self) -> float:
        """Mean in-memory utilization of the live Cache Workers (0..1)."""
        used = capacity = 0.0
        for machine in self.cluster.alive_machines():
            worker = machine.cache_worker
            if worker is None:
                continue
            used += worker.bytes_in_memory
            capacity += worker.config.memory_capacity
        return used / capacity if capacity > 0 else 0.0

    def _edge_scheme(self, job_run: JobRun, edge: Edge, cross_unit: bool) -> ShuffleScheme:
        requested = (
            self.policy.effective_cross_unit_shuffle() if cross_unit else self.policy.shuffle
        )
        if not cross_unit:
            return resolve_scheme(requested, job_run.dag.edge_size(edge), self.config.shuffle)
        # Cross-unit edges route through Cache Workers, so their scheme is
        # re-resolved against realized cluster state the first time anybody
        # needs it (i.e. when the earliest adjacent stage prepares), then
        # pinned: producer store and consumer costing must agree.
        edge_key = f"{edge.src}->{edge.dst}"
        decision = job_run.edge_mode_decisions.get(edge_key)
        if decision is None:
            decision = self.mode_controller.resolve(
                requested,
                job_run.dag.edge_size(edge),
                cache_utilization=self._cache_utilization,
                setup_latency=self.cluster.network.connection_setup_time(),
            )
            job_run.edge_mode_decisions[edge_key] = decision
            if decision.switched:
                if self.tracer.enabled:
                    self.tracer.instant(
                        Category.SHUFFLE, "shuffle.mode_switch", self.sim.now,
                        job_run.job_id, scope=edge_key,
                        scheme=decision.scheme.value,
                        static_scheme=decision.static_scheme.value,
                        reason=decision.reason,
                    )
                    self.tracer.count("shuffle_mode_switches")
        return decision.scheme

    def _prepare_stage(self, sr: StageRun) -> None:
        """Compute stage-level costs and input-availability constants."""
        job_run = sr.job_run
        dag = job_run.dag
        stage = sr.stage
        machines = max(1, len(self.cluster.schedulable_machines()))
        tasks_per_machine = max(1, math.ceil(stage.task_count / machines))

        if stage.scan_bytes_per_task > 0:
            sr.scan_read = self.cluster.disk.read_time(
                stage.scan_bytes_per_task, n_files=1, concurrent_tasks=tasks_per_machine
            )

        read_cost = 0.0
        barrier_avail = 0.0
        pipeline_floor = 0.0
        pipeline_first = 0.0
        total_conns = 0
        in_edges = dag.in_edges(sr.name)
        sr.has_inputs = bool(in_edges) or stage.scan_bytes_per_task > 0
        edge_infos: list[tuple[Edge, StageRun, bool, ShuffleScheme, int]] = []
        merge_candidates: list[tuple[str, float, int]] = []
        for edge in in_edges:
            producer_sr = job_run.stage_runs[edge.src]
            cross = producer_sr.unit_id != sr.unit_id
            scheme = self._edge_scheme(job_run, edge, cross)
            m = dag.stage(edge.src).task_count
            edge_infos.append((edge, producer_sr, cross, scheme, m))
            if (
                cross
                and scheme is ShuffleScheme.DIRECT
                and not self._edge_streams(job_run, edge, sr)
            ):
                merge_candidates.append(
                    (f"{edge.src}->{edge.dst}", dag.edge_bytes(edge), m)
                )
        # Small-partition storms: many tiny direct cross-unit edges are
        # collapsed into one push-based merged transfer (FuxiShuffle
        # direction) — one aggregated remote push instead of M_i x N
        # per-edge connection meshes.
        merged, _ = plan_partition_merge(
            merge_candidates, stage.task_count, self.config.shuffle
        )
        merged_keys = frozenset(merged.edges) if merged is not None else frozenset()
        for edge, producer_sr, cross, scheme, m in edge_infos:
            n = stage.task_count
            y = self._effective_machines(m, n)
            edge_key = f"{edge.src}->{edge.dst}"
            if edge_key in merged_keys:
                # Costed once below, as part of the merged transfer.
                job_run.metrics.shuffle_schemes[edge_key] = "merged"
            else:
                cost = self.shuffle_model.edge_cost(
                    scheme, dag.edge_bytes(edge), m, n, y,
                    barrier=not self._edge_streams(job_run, edge, sr),
                )
                read_cost += cost.read_per_task
                total_conns += cost.connections
                job_run.metrics.shuffle_schemes[edge_key] = cost.scheme.value
                if self.tracer.enabled:
                    self.tracer.instant(
                        Category.SHUFFLE, "shuffle.scheme", self.sim.now,
                        job_run.job_id, scope=edge_key,
                        scheme=cost.scheme.value, size=m * n,
                        bytes=dag.edge_bytes(edge), cross_unit=cross,
                        connections=cost.connections,
                    )
                    self.tracer.count(f"shuffle_edges_{cost.scheme.value}")
            if self._edge_streams(job_run, edge, sr):
                pipeline_floor = max(pipeline_floor, producer_sr.finish_estimate)
                pipeline_first = max(pipeline_first, producer_sr.first_output)
            else:
                avail = producer_sr.finish_estimate
                if cross and scheme in (ShuffleScheme.LOCAL, ShuffleScheme.REMOTE):
                    avail += self._cache_worker_read_delay(job_run, edge, n)
                    avail += job_run.edge_extra_delay.get(edge_key, 0.0)
                barrier_avail = max(barrier_avail, avail)
        if merged is not None:
            y = self._effective_machines(merged.m, merged.n)
            cost = self.shuffle_model.edge_cost(
                ShuffleScheme.REMOTE, merged.total_bytes,
                merged.m, merged.n, y, barrier=True,
            )
            read_cost += cost.read_per_task
            total_conns += cost.connections
            if self.tracer.enabled:
                self.tracer.instant(
                    Category.SHUFFLE, "shuffle.merge", self.sim.now,
                    job_run.job_id, scope=sr.name,
                    edges=len(merged.edges), bytes=merged.total_bytes,
                    m=merged.m, n=merged.n, connections=cost.connections,
                )
                self.tracer.count("shuffle_merged_edges", len(merged.edges))
        sr.read_cost = read_cost
        sr.barrier_avail = barrier_avail
        sr.pipeline_floor = pipeline_floor
        sr.pipeline_first_input = pipeline_first
        sr.registered_connections = total_conns
        self.cluster.network.register_connections(total_conns)

        write_cost = 0.0
        for edge in dag.out_edges(sr.name):
            consumer_sr = job_run.stage_runs[edge.dst]
            cross = consumer_sr.unit_id != sr.unit_id
            scheme = self._edge_scheme(job_run, edge, cross)
            m = stage.task_count
            n = dag.stage(edge.dst).task_count
            y = self._effective_machines(m, n)
            cost = self.shuffle_model.edge_cost(
                scheme, dag.edge_bytes(edge), m, n, y,
                barrier=not self._edge_streams(job_run, edge, consumer_sr),
            )
            write_cost += cost.write_per_task
        if not dag.out_edges(sr.name) and stage.output_bytes_per_task > 0:
            # Sink stages write their result to the client / ad-hoc sink.
            write_cost += stage.output_bytes_per_task / self.config.network.nic_bandwidth
        sr.write_cost = write_cost
        sr.prepared = True

    def _effective_machines(self, m: int, n: int) -> int:
        """Machine spread Y of a shuffle: tasks pack onto executors, so with
        dozens of executors per machine "Y is much smaller than M and N"
        (Section III-B)."""
        per_machine = self.cluster.executors_per_machine
        return max(1, min(self.cluster.n_machines, math.ceil(max(m, n) / per_machine)))

    def _cache_worker_read_delay(self, job_run: JobRun, edge: Edge, n_consumers: int) -> float:
        """Extra read delay when a cross-unit edge's data was spilled.

        Each replica group is read through its first member still holding
        the entry — the primary while it lives, a replica after a failover.
        """
        delay = 0.0
        key = f"{edge.src}->{edge.dst}"
        job_id = job_run.job_id
        groups = job_run.edge_cw_machines.get(key, ())
        for group in groups:
            for machine_id in group:
                worker: CacheWorker = self.cluster.machines[machine_id].cache_worker  # type: ignore[assignment]
                if worker is None or worker.entry(job_id, key) is None:
                    continue
                delay = max(delay, worker.read(job_id, key, self.sim.now))
                break
        return delay

    def _work_seconds(self, sr: StageRun) -> float:
        stage = sr.stage
        if stage.work_seconds_per_task is not None:
            return stage.work_seconds_per_task
        dag = sr.job_run.dag
        in_bytes = stage.scan_bytes_per_task
        for edge in dag.in_edges(stage.name):
            in_bytes += dag.edge_bytes(edge) / stage.task_count
        return in_bytes / self.config.task_processing_rate

    def _compute_ready_instances(self, sr: StageRun) -> None:
        """Compute finish times for dispatched-but-uncomputed instances.

        One rng draw per instance, in instance order.  An instance that lost
        its executor waits for recovery instead.  Stage aggregates are
        carried in locals and written back once.  Each instance's finish
        event is scheduled inline, in instance order; ``schedule_batch`` is
        not used because it takes delays, and ``now + (finish - now)`` need
        not round back to ``finish``.
        """
        work = self._work_seconds(sr)
        flush = self.config.pipeline_flush_latency
        random = self.sim.rng.random
        read = sr.scan_read + sr.read_cost
        write = sr.write_cost
        barrier = sr.barrier_avail
        p_floor = sr.pipeline_floor
        p_first = sr.pipeline_first_input
        has_inputs = sr.has_inputs
        finish_est = sr.finish_estimate
        earliest = sr.earliest_read_done
        n_computed = sr.n_computed
        now = self.sim.now
        schedule_at = self.sim.schedule_at
        on_finish = self._on_task_finish
        dispatched = TaskState.DISPATCHED
        inf = math.inf
        for inst in sr.instances:
            if inst.state is not dispatched or inst.finish_time != inf or inst.executor is None:
                continue
            # CPython's uniform(0.0, 0.06) is 0.0 + (0.06 - 0.0) * random():
            # the same float from the same stream, without the extra frame.
            proc = work * (1.0 + 0.06 * random())
            inst.proc = proc
            inst.read = read
            inst.write = write
            ready = inst.plan_arrive + inst.launch
            start, finish = _task_times(ready, barrier, p_floor, p_first, flush, read, proc, write)
            inst.ready = ready
            inst.start = start
            inst.finish_time = finish
            # Times are non-negative, so an unset (0.0) input never wins.
            inst.data_arrive = max(ready, barrier, p_first) if has_inputs else ready
            n_computed += 1
            if finish > finish_est:
                finish_est = finish
            read_done = start + read
            if read_done < earliest:
                earliest = read_done
            inst.finish_event = schedule_at(finish if finish > now else now, on_finish, inst)
        sr.n_computed = n_computed
        sr.finish_estimate = finish_est
        sr.earliest_read_done = earliest
        if n_computed == len(sr.instances):
            sr.computed = True
            if sr.stage.is_blocking or not self.policy.pipelined_execution:
                sr.first_output = sr.finish_estimate
            else:  # streaming stage: first output follows the earliest start
                starts = [i.start for i in sr.instances if i.start != inf]
                base = min(starts) if starts else self.sim.now
                sr.first_output = max(base, p_first) + flush
            # Unblock same-unit successors now that estimates exist.
            self._try_compute_stages(sr.job_run.units[sr.unit_id])

    def _schedule_finish(self, inst: TaskInstance) -> None:
        """Queue ``inst``'s finish event at its current finish time (never
        before ``sim.now``).

        A queued event at another time is cancelled first, so each attempt
        has exactly one live finish event, at the time it finishes.
        """
        time = max(inst.finish_time, self.sim.now)
        event = inst.finish_event
        if event is not None:
            if event.time == time:
                return
            event.cancel()
        inst.finish_event = self.sim.schedule_at(time, self._on_task_finish, inst)

    def _cancel_finish(self, inst: TaskInstance) -> None:
        if inst.finish_event is not None:
            inst.finish_event.cancel()
            inst.finish_event = None

    def _on_task_finish(self, inst: TaskInstance) -> None:
        """An executor's finish report for ``inst`` at its ``finish_time``:
        finalize the task, complete its stage, and hand the freed executor
        to the scheduler.  Every queued finish event is live."""
        inst.finish_event = None
        inst.state = TaskState.FINISHED
        self._flush_finishes(inst)
        sr = inst.stage_run
        sr.n_finalized += 1
        if sr.n_finalized == len(sr.instances) and not sr.completed:
            self._on_stage_completed(sr)
        # A pump with an empty request queue cannot grant anything.
        if self.scheduler._pending:
            self._pump_scheduler()

    def _flush_finishes(self, inst: TaskInstance) -> None:
        """Record a finished task: its ``TaskTiming`` and task span, then
        release its executor.

        The name is kept for ``bench/spans.py``, which patches
        ``SwiftRuntime._flush_finishes`` by name to time this layer as
        ``core.runtime.flush_finishes``.
        """
        sr = inst.stage_run
        job_run = sr.job_run
        finish = inst.finish_time
        data_arrive = inst.data_arrive
        # Positional, in TaskTiming field order; data_arrive is
        # min(data_arrive, finish).
        job_run.metrics.tasks.append(
            TaskTiming(
                job_run.job_id, sr.name, inst.index, inst.attempt, inst.plan_arrive,
                finish if finish < data_arrive else data_arrive, finish,
                inst.launch, inst.read, inst.proc, inst.write,
            )
        )
        if self.tracer.enabled:
            self.tracer.task_span(
                sr.name, job_run.job_id, inst.index, inst.attempt,
                inst.plan_arrive, data_arrive, finish,
                inst.launch, inst.read, inst.proc, inst.write,
            )
        executor = inst.executor
        if executor is not None:
            executor.release()
            inst.executor = None

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _on_stage_completed(self, sr: StageRun) -> None:
        sr.completed = True
        sr.finish_estimate = self.sim.now
        job_run = sr.job_run
        self.admin.admit_ops(self.sim.now, 1)
        self.admin.record_status_report()
        if self.tracer.enabled:
            start = min(
                (inst.plan_arrive for inst in sr.instances),
                default=self.sim.now,
            )
            self.tracer.span(
                Category.STAGE, sr.name, start, self.sim.now - start,
                job_run.job_id,
                scope=f"unit{job_run.units[sr.unit_id].graphlet_id}",
                tasks=len(sr.instances),
            )
        if sr.registered_connections:
            self.cluster.network.release_connections(sr.registered_connections)
            sr.registered_connections = 0
        if self.ledger is not None:
            # Cheap checkpoint: the connection shadow must agree right after
            # every stage's release (cache/executor checks run at teardown).
            self.ledger.reconcile_network(
                self.cluster.network, f"stage:{job_run.job_id}/{sr.name}"
            )
        self._store_cross_unit_outputs(sr)
        self._consume_cross_unit_inputs(sr)
        # Cross-unit consumers (conservative submission) may be ready now.
        self._try_submit_units(job_run)
        # Eagerly-granted consumer units may now compute their stages.
        for edge in job_run.dag.out_edges(sr.name):
            consumer = job_run.stage_runs[edge.dst]
            if consumer.unit_id != sr.unit_id:
                unit = job_run.units[consumer.unit_id]
                if unit.state == UnitState.GRANTED:
                    self._try_compute_stages(unit)
        unit = job_run.units[sr.unit_id]
        if unit.state != UnitState.DONE and unit.all_completed():
            unit.state = UnitState.DONE
            if self.tracer.enabled:
                self.tracer.instant(
                    Category.UNIT, "unit.completed", self.sim.now,
                    job_run.job_id, scope=f"unit{unit.graphlet_id}",
                )
            if all(u.state == UnitState.DONE for u in job_run.units.values()):
                self._on_job_completed(job_run)

    def _store_cross_unit_outputs(self, sr: StageRun) -> None:
        """Write this stage's cross-unit shuffle data into Cache Workers."""
        job_run = sr.job_run
        dag = job_run.dag
        for edge in dag.out_edges(sr.name):
            consumer = job_run.stage_runs[edge.dst]
            if consumer.unit_id == sr.unit_id:
                continue
            scheme = self._edge_scheme(job_run, edge, cross_unit=True)
            if scheme not in (ShuffleScheme.LOCAL, ShuffleScheme.REMOTE):
                continue
            key = f"{edge.src}->{edge.dst}"
            # Data lands on the first Y schedulable machines (alive ones
            # when none is schedulable), not on the machines the producer
            # gang actually ran on.
            m = dag.stage(edge.src).task_count
            n = dag.stage(edge.dst).task_count
            y = self._effective_machines(m, n)
            candidates = self.cluster.schedulable_machines() or self.cluster.alive_machines()
            machines = candidates[:y]
            # Each machine stores a whole number of bytes: the share rounds
            # up once, here, and the Cache Workers count exact ints.
            share = math.ceil(dag.edge_bytes(edge) / max(1, len(machines)))
            consumers_per_machine = max(
                1, math.ceil(dag.stage(edge.dst).task_count / max(1, len(machines)))
            )
            # Replicate each primary's share onto other Cache Workers, round
            # robin and load-aware; a lost primary then fails over to a replica
            # instead of re-running the producer.
            groups = pick_replica_machines(
                machines, candidates, self.config.shuffle.replication_factor
            )
            spill_delay = 0.0
            n_replicas = 0
            job_id = job_run.job_id
            job_run.edge_cw_machines[key] = [
                [mm.machine_id for mm in group] for group in groups
            ]
            job_run.cw_machines.update(
                mm.machine_id for group in groups for mm in group
            )
            for group in groups:
                for rank, machine in enumerate(group):
                    worker: CacheWorker = machine.cache_worker  # type: ignore[assignment]
                    spill_delay = max(
                        spill_delay,
                        worker.write(
                            job_id,
                            key,
                            share,
                            pending_consumers=consumers_per_machine,
                            now=self.sim.now,
                            replica=rank > 0,
                        ),
                    )
                    n_replicas += rank > 0
            if spill_delay > 0:
                job_run.edge_extra_delay[key] = spill_delay
            if self.tracer.enabled:
                self.tracer.instant(
                    Category.CACHE, "cache.store", self.sim.now, job_id,
                    scope=key, bytes=dag.edge_bytes(edge),
                    machines=len(machines), replicas=n_replicas,
                    spill_delay=spill_delay,
                )
                if spill_delay > 0:
                    self.tracer.instant(
                        Category.CACHE, "cache.spill", self.sim.now, job_id,
                        scope=key, delay=spill_delay,
                    )
                    self.tracer.count("cache_spill_edges")
                for group in groups:
                    for machine in group:
                        worker = machine.cache_worker
                        if worker is not None:
                            self.tracer.gauge_max(
                                "cache_worker_mem_used_bytes", worker.bytes_in_memory
                            )

    def _consume_cross_unit_inputs(self, sr: StageRun) -> None:
        """Release Cache Worker entries this stage has fully consumed."""
        job_run = sr.job_run
        for edge in job_run.dag.in_edges(sr.name):
            producer = job_run.stage_runs[edge.src]
            if producer.unit_id == sr.unit_id:
                continue
            key = f"{edge.src}->{edge.dst}"
            groups = job_run.edge_cw_machines.pop(key, ())
            for group in groups:
                for machine_id in group:
                    worker: CacheWorker = self.cluster.machines[machine_id].cache_worker  # type: ignore[assignment]
                    if worker is not None:
                        entry = worker.entry(job_run.job_id, key)
                        if entry is not None:
                            entry.pending_consumers = 1
                            worker.consume(job_run.job_id, key)

    def _on_job_completed(self, job_run: JobRun) -> None:
        job_run.done = True
        job_run.metrics.finish_time = self.sim.now
        if self.tracer.enabled:
            metrics = job_run.metrics
            self.tracer.span(
                Category.JOB, job_run.job_id, metrics.submit_time,
                metrics.latency, job_run.job_id,
                attempts=job_run.attempt + 1,
                failures=metrics.failures,
                restarts=metrics.restarts,
            )
        self._release_cache_workers(job_run)
        if self.ledger is not None:
            self.ledger.reconcile(
                self.cluster, f"job:{job_run.job_id}:completed",
                touched_only=True,
            )
        self.results.append(
            JobResult(
                job_id=job_run.job_id,
                policy_name=self.policy.name,
                metrics=job_run.metrics,
                completed=True,
                failed=False,
            )
        )
        if self.on_job_done is not None:
            self.on_job_done(self.results[-1])

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_failure(self, spec: FailureSpec, job_id: str) -> None:
        job_run = self.job_runs.get(job_id)
        if job_run is None or job_run.done or job_run.aborted or job_run.failed:
            return
        delay = detection_delay(spec.kind, self.config.admin, self.cluster.n_machines)
        detect_t = self.sim.now + delay
        job_run.metrics.failures += 1
        if self.tracer.enabled:
            # Detection by missed heartbeats for crashes, by the executor's
            # own re-registration for process restarts (Section IV-A).
            method = (
                "heartbeat"
                if spec.kind == FailureKind.MACHINE_CRASH
                else "self_report"
            )
            self.tracer.instant(
                Category.FAILURE, "failure.injected", self.sim.now, job_id,
                scope=spec.stage or "", kind=spec.kind.value,
            )
            self.tracer.instant(
                Category.FAILURE, "failure.detected", detect_t, job_id,
                scope=spec.stage or "", kind=spec.kind.value,
                method=method, delay=delay,
            )
            self.tracer.count("failures_injected")

        if spec.kind == FailureKind.APPLICATION_ERROR:
            # Useless recovery: report to the Job Monitor, fail the job.
            metrics = job_run.metrics
            metrics.recoveries_by_case["useless"] = (
                metrics.recoveries_by_case.get("useless", 0) + 1
            )
            self.sim.schedule_at(
                detect_t, self._fail_job, job_run,
                "application_error: reported to job monitor, not retried "
                "(useless recovery)",
            )
            return

        if spec.kind == FailureKind.MACHINE_QUARANTINE:
            machine = self.cluster.machines[spec.machine_id or 0]
            self.sim.schedule_at(
                detect_t, self._quarantine_machine, machine, spec.duration, job_id
            )
            return

        if spec.kind == FailureKind.CACHE_WORKER_LOSS:
            machine = self.cluster.machines[spec.machine_id or 0]
            self.sim.schedule_at(detect_t, self._on_cache_worker_lost, machine, job_id)
            return

        if spec.kind == FailureKind.MACHINE_CRASH:
            machine = self.cluster.machines[spec.machine_id or 0]
            machine.mark_dead()
            victims = [
                inst
                for jr in self.job_runs.values()
                for sr in jr.stage_runs.values()
                for inst in sr.instances
                if inst.executor is not None and inst.executor.machine is machine
            ]
            for inst in victims:
                inst.executor = None
                if inst.state == TaskState.DISPATCHED:
                    # The in-flight attempt dies with the machine; suspend
                    # its completion until recovery re-runs it.
                    inst.finish_time = math.inf
                    self._cancel_finish(inst)
            # Requests that no longer fit the live pool can never be
            # granted: fail their jobs instead of letting a dead gang block
            # the queue head.
            self._check_schedulable(self.scheduler.pending())
            if self.policy.recovery == FailureRecovery.JOB_RESTART:
                # Restart every job that lost an in-flight task, not just the
                # one the spec targeted: a machine death is cluster-wide.
                affected = {id(job_run): job_run}
                for inst in victims:
                    jr = inst.stage_run.job_run
                    affected.setdefault(id(jr), jr)
                for jr in affected.values():
                    self.sim.schedule_at(detect_t, self._restart_job, jr)
            else:
                # Recover victims of *all* jobs: suspending a victim clears
                # its executor, so a later injection of the same crash for
                # another job would no longer find it.
                for inst in victims:
                    self.sim.schedule_at(detect_t, self._recover_task, inst)
            return

        instance = self._find_target_instance(job_run, spec)
        if instance is None:
            return
        if (
            spec.kind == FailureKind.PROCESS_RESTART
            and instance.executor is not None
        ):
            # The executor process dies and relaunches with a new PID; the
            # self-report of the new PID is what the Admin detects
            # (Section IV-A's lazy, passive process tracking).
            instance.executor.relaunch()
            instance.executor = None
            if instance.state == TaskState.DISPATCHED:
                instance.finish_time = math.inf
                self._cancel_finish(instance)
        if instance.executor is not None:
            machine = instance.executor.machine
            if self.admin.record_task_failure(machine.machine_id, self.sim.now):
                # The health monitor flagged the machine (Section IV-A).
                machine.mark_read_only()
                if self.tracer.enabled:
                    self.tracer.instant(
                        Category.FAILURE, "machine.quarantined", self.sim.now,
                        job_id, scope=f"machine{machine.machine_id}",
                        duration=None,
                    )
        if self.policy.recovery == FailureRecovery.JOB_RESTART:
            self.sim.schedule_at(detect_t, self._restart_job, job_run)
        else:
            self.sim.schedule_at(detect_t, self._recover_task, instance)

    def _find_target_instance(
        self, job_run: JobRun, spec: FailureSpec
    ) -> Optional[TaskInstance]:
        if spec.stage is not None:
            sr = job_run.stage_runs.get(spec.stage)
            if sr is None:
                return None
            if spec.task_index is not None:
                return sr.instances[spec.task_index]
            running = [
                i
                for i in sr.instances
                if i.state == TaskState.DISPATCHED and i.plan_arrive <= self.sim.now
            ]
            if running:
                return running[0]
            finished = [i for i in sr.instances if i.state == TaskState.FINISHED]
            if finished:
                return finished[0]
            return sr.instances[0]
        # No stage named: hit the first currently-running task of the job.
        for sr in job_run.stage_runs.values():
            for inst in sr.instances:
                if inst.state == TaskState.DISPATCHED and inst.plan_arrive <= self.sim.now:
                    return inst
        for sr in job_run.stage_runs.values():
            if sr.instances:
                return sr.instances[0]
        return None

    def _quarantine_machine(
        self, machine, duration: Optional[float], job_id: str
    ) -> None:
        """Admin-side quarantine (Section IV-A): the machine goes read-only,
        running tasks drain, and ``duration`` seconds later it recovers."""
        if not machine.alive:
            return
        started = self.admin.quarantine_machine(machine.machine_id)
        machine.mark_read_only()
        if started and self.tracer.enabled:
            self.tracer.instant(
                Category.FAILURE, "machine.quarantined", self.sim.now,
                job_id, scope=f"machine{machine.machine_id}",
                duration=duration,
            )
        if duration is not None:
            self.sim.schedule(duration, self._recover_machine, machine, job_id)

    def _recover_machine(self, machine, job_id: str) -> None:
        """End a quarantine episode: the machine accepts tasks again."""
        if not machine.alive:
            return
        recovered = self.admin.record_machine_recovered(machine.machine_id)
        machine.mark_healthy()
        if recovered and self.tracer.enabled:
            self.tracer.instant(
                Category.RECOVERY, "machine.recovered", self.sim.now,
                job_id, scope=f"machine{machine.machine_id}",
            )
        # Returned capacity may satisfy queued gang requests.
        self._pump_scheduler()

    def _holds_entry(self, machine_id: int, job_id: str, edge_key: str) -> bool:
        """True when ``machine_id``'s Cache Worker still serves the entry."""
        machine = self.cluster.machines[machine_id]
        worker = machine.cache_worker
        return (
            machine.alive
            and worker is not None
            and worker.entry(job_id, edge_key) is not None
        )

    def _on_cache_worker_lost(self, machine, job_id: str) -> None:
        """A Cache Worker dies, losing all shuffle data it held.

        Shuffle v2 first tries failover: if every replica group of a lost
        edge keeps at least one live holder, consumers simply read from the
        surviving replicas and no recompute happens.  Only when a share is
        unrecoverable does the producer re-generate and re-write the data
        (the OUTPUT_FAILURE path of Section IV-B, applied per lost entry).
        """
        worker: Optional[CacheWorker] = machine.cache_worker
        if worker is None:
            return
        lost = worker.drop_all(now=self.sim.now, reason="cache_worker_loss")
        if self.tracer.enabled:
            self.tracer.instant(
                Category.FAILURE, "cache_worker.lost", self.sim.now, job_id,
                scope=f"machine{machine.machine_id}", entries=len(lost),
            )
        for entry in lost:
            entry_job_id, edge_key = entry.key
            job_run = self.job_runs.get(entry_job_id)
            if job_run is None or job_run.done or job_run.aborted or job_run.failed:
                continue
            src, _, dst = edge_key.partition("->")
            producer_sr = job_run.stage_runs.get(src)
            consumer_sr = job_run.stage_runs.get(dst)
            if producer_sr is None or consumer_sr is None or consumer_sr.completed:
                continue
            # The dead worker can no longer serve reads for this edge.
            groups = job_run.edge_cw_machines.get(edge_key)
            share_lost = groups is None
            survivors = 0
            if groups is not None:
                for group in groups:
                    if machine.machine_id not in group:
                        continue
                    group.remove(machine.machine_id)
                    holders = sum(
                        1 for mid in group
                        if self._holds_entry(mid, entry_job_id, edge_key)
                    )
                    survivors += holders
                    if holders == 0:
                        share_lost = True
            if not share_lost:
                # Failover: surviving replicas hold every share, so the
                # consumers' reads are redirected and nothing re-runs.
                self.shuffle_recovery_log.append({
                    "job_id": entry_job_id,
                    "edge_key": edge_key,
                    "machine_id": machine.machine_id,
                    "survivors": survivors,
                    "action": "failover",
                })
                if self.tracer.enabled:
                    self.tracer.instant(
                        Category.RECOVERY, "shuffle.failover", self.sim.now,
                        entry_job_id, scope=edge_key,
                        machine=machine.machine_id, survivors=survivors,
                    )
                    self.tracer.count("shuffle_failover_reads")
                continue
            # Re-generate: recover one finished producer task, which re-runs
            # it and propagates the delay to the waiting consumers.
            self.shuffle_recovery_log.append({
                "job_id": entry_job_id,
                "edge_key": edge_key,
                "machine_id": machine.machine_id,
                "survivors": survivors,
                "action": "rerun",
            })
            victim = next(
                (i for i in producer_sr.instances if i.state == TaskState.FINISHED),
                None,
            )
            if victim is not None:
                self._recover_task(victim)

    def _fail_job(self, job_run: JobRun, reason: str = "") -> None:
        if job_run.done or job_run.failed:
            return
        job_run.failed = True
        if self.tracer.enabled:
            self.tracer.instant(
                Category.JOB, "job.failed", self.sim.now, job_run.job_id,
                attempt=job_run.attempt, reason=reason,
            )
        self._release_job_resources(job_run)
        if self.ledger is not None:
            self.ledger.reconcile(
                self.cluster, f"job:{job_run.job_id}:failed",
                touched_only=True,
            )
        job_run.metrics.finish_time = self.sim.now
        self.results.append(
            JobResult(
                job_id=job_run.job_id,
                policy_name=self.policy.name,
                metrics=job_run.metrics,
                completed=False,
                failed=True,
                reason=reason,
            )
        )
        if self.on_job_done is not None:
            self.on_job_done(self.results[-1])

    def _release_cache_workers(self, job_run: JobRun) -> None:
        """Drop all Cache Worker entries and per-edge state an attempt left
        behind."""
        job_id = job_run.job_id
        for machine_id in job_run.cw_machines:
            worker: CacheWorker = self.cluster.machines[machine_id].cache_worker  # type: ignore[assignment]
            if worker is not None:
                worker.release_job(job_id, now=self.sim.now)
        job_run.cw_machines.clear()
        job_run.edge_cw_machines.clear()
        job_run.edge_mode_decisions.clear()
        job_run.edge_extra_delay.clear()

    def _release_job_resources(self, job_run: JobRun) -> None:
        for item in self.scheduler.cancel_job(job_run.job_id):
            self._waiting_reruns.pop(item.request_id, None)
        trace_on = self.tracer.enabled
        for sr in job_run.stage_runs.values():
            if sr.registered_connections:
                self.cluster.network.release_connections(sr.registered_connections)
                sr.registered_connections = 0
            for inst in sr.instances:
                if trace_on and inst.state == TaskState.DISPATCHED:
                    self.tracer.span(
                        Category.TASK,
                        f"{sr.name}[{inst.index}].aborted",
                        inst.plan_arrive,
                        self.sim.now - inst.plan_arrive,
                        job_run.job_id,
                        scope=sr.name,
                        finish=self.sim.now,
                        attempt=inst.attempt,
                        aborted=True,
                    )
                if inst.executor is not None:
                    inst.executor.release()
                    inst.executor = None
                self._cancel_finish(inst)
                inst.state = TaskState.DEAD
        self._release_cache_workers(job_run)
        self._pump_scheduler()

    def _restart_job(self, job_run: JobRun) -> None:
        if job_run.done or job_run.aborted or job_run.failed:
            return
        job_run.aborted = True
        job_run.metrics.restarts += 1
        if self.tracer.enabled:
            self.tracer.instant(
                Category.RECOVERY, "recovery.job_restart", self.sim.now,
                job_run.job_id, attempt=job_run.attempt + 1,
            )
            self.tracer.count("job_restarts_executed")
        self.admin.drop_job_plans(job_run.job_id)
        self._release_job_resources(job_run)
        self._on_job_submitted(job_run.job, job_run.attempt + 1)

    def _recover_task(self, inst: TaskInstance) -> None:
        """Fine-grained recovery (Section IV-B) for one failed task."""
        sr = inst.stage_run
        job_run = sr.job_run
        if job_run.done or job_run.aborted or job_run.failed:
            return
        if inst.state in (TaskState.DEAD, TaskState.PENDING, TaskState.WAITING):
            # A task that never received a plan has produced nothing and
            # consumed nothing, and a re-run waiting for its executor has not
            # started; there is nothing to recover.
            return
        if inst.start == math.inf:
            # Dispatched but never computed (inputs still unknown): the
            # normal flow will execute it.  If it lost its executor, it goes
            # back to pending and its unit asks for one, as at its first
            # dispatch.
            if inst.executor is None:
                self._requeue(inst)
            return
        has_executed = {
            name: s.n_computed > 0 and any(i.start <= self.sim.now for i in s.instances)
            for name, s in job_run.stage_runs.items()
        }
        decision = plan_recovery(
            job_run.dag,
            job_run.graphlets,
            sr.name,
            kind=FailureKind.TASK_CRASH,
            task_finished=inst.state == TaskState.FINISHED,
            output_fully_consumed=self._output_consumed(sr),
            has_executed=has_executed,
        )
        metrics = job_run.metrics
        metrics.recoveries_by_case[decision.case.value] = (
            metrics.recoveries_by_case.get(decision.case.value, 0) + 1
        )
        if decision.noop:
            metrics.noop_recoveries += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    Category.RECOVERY, "recovery.noop", self.sim.now,
                    job_run.job_id, scope=sr.name,
                    task=inst.index, case=decision.case.value,
                )
            return
        metrics.resends += len(decision.resend_from)
        # The plan's re-run budget: the failed task plus every non-pending
        # instance of the other stages the decision drags in.
        metrics.planned_rerun_tasks += 1 + sum(
            sum(1 for i in job_run.stage_runs[name].instances
                if i.state != TaskState.PENDING)
            for name in decision.rerun_stages
            if name != sr.name
        )
        resend_delay = 0.0
        for pred_name in decision.resend_from:
            pred = job_run.dag.stage(pred_name)
            share = pred.total_output_bytes / max(1, sr.stage.task_count)
            resend_delay += share / self.config.network.nic_bandwidth
        if not self._retry_left(inst):
            return
        if self.tracer.enabled:
            self.tracer.instant(
                Category.RECOVERY, "recovery.rerun", self.sim.now,
                job_run.job_id, scope=sr.name,
                task=inst.index, case=decision.case.value,
                resend_delay=resend_delay,
                rerun_stages=len(decision.rerun_stages),
            )
            self.tracer.count("task_reruns_executed")
        successors = tuple(name for name in decision.rerun_stages if name != sr.name)
        # Re-run the failed task itself; the rest of the recovery waits for
        # its times.
        self._rerun_instance(
            inst, self.sim.now + resend_delay,
            lambda finish: self._rerun_successors(sr, successors, finish),
        )

    def _requeue(self, inst: TaskInstance) -> None:
        """Send a dispatched task that has not run, and holds no executor,
        back to pending; its unit asks for one executor, and the grant
        dispatches it as a first run."""
        inst.state = TaskState.PENDING
        unit = inst.stage_run.job_run.units[inst.stage_run.unit_id]
        item = self._request(unit, 1)
        self._request_units[item.request_id] = unit
        self._pump_scheduler()

    def _yield_idle_executors(self) -> bool:
        """The event queue drained with requests still queued: no running
        task will release an executor, and the executors they need are held
        by dispatched tasks whose inputs are not ready, as an eagerly
        granted unit (Bubble) holds them while the producer it waits for
        has lost its executor to a failure.  Those tasks give their
        executors back and are requeued; True when any was."""
        if not self.scheduler._pending:
            return False
        idle = [
            inst
            for job_run in self.job_runs.values()
            if not (job_run.done or job_run.failed)
            for sr in job_run.stage_runs.values()
            for inst in sr.instances
            if inst.state is TaskState.DISPATCHED
            and inst.start == math.inf
            and inst.executor is not None
        ]
        for inst in idle:
            inst.executor.release()
            inst.executor = None
            self._requeue(inst)
        return bool(idle)

    def _rerun_successors(
        self, sr: StageRun, stages: tuple[str, ...], gate: float
    ) -> None:
        """The rest of a recovery, run once the re-run of ``sr``'s failed
        task has its times.  Non-idempotent case: the executed instances of
        each same-unit successor stage in ``stages`` re-run, gated on every
        re-run before them finishing (``gate``).  Then the stages downstream
        of ``sr`` are re-timed."""
        if not stages:
            self._propagate_delays(sr)
            return
        rest = stages[1:]
        insts = [
            i for i in sr.job_run.stage_runs[stages[0]].instances
            if i.state not in (TaskState.PENDING, TaskState.WAITING)
        ]
        if not insts:
            self._rerun_successors(sr, rest, gate)
            return
        finishes = [gate]

        def timed(finish: float) -> None:
            finishes.append(finish)
            if len(finishes) > len(insts):
                self._rerun_successors(sr, rest, max(finishes))

        for succ_inst in insts:
            if not self._retry_left(succ_inst):
                return
            self._rerun_instance(succ_inst, gate, timed)

    def _retry_left(self, inst: TaskInstance) -> bool:
        """True when ``inst`` may re-run once more.  Otherwise its retry
        budget is exhausted and its job is failed with a clear reason."""
        retry = self.config.retry
        if inst.attempt + 1 <= retry.max_task_retries:
            return True
        sr = inst.stage_run
        self._fail_job(
            sr.job_run,
            reason=(
                f"retry budget exhausted: task {sr.name}[{inst.index}] "
                f"failed {inst.attempt + 1} times "
                f"(max_task_retries={retry.max_task_retries})"
            ),
        )
        return False

    def _rerun_instance(
        self, inst: TaskInstance, not_before: float, then: Callable[[float], None]
    ) -> None:
        """Re-execute ``inst`` in place, then call ``then`` with its new
        finish time.

        Each re-run consumes one unit of the task's retry budget (callers
        check :meth:`_retry_left` first) and pays, in this order, the
        policy's launch (:meth:`_launch`, as a first run does), an
        exponential backoff with jitter drawn from the simulator rng, and
        plan generation on a Plan Handler miss.  A re-run that still holds
        its executor (the process survived a task crash) starts at once.
        One without is suspended (``WAITING``, no finish event) until the
        scheduler grants its one-executor request.
        """
        sr = inst.stage_run
        retry = self.config.retry
        inst.attempt += 1
        if inst.state == TaskState.FINISHED:
            sr.n_finalized -= 1
            sr.completed = False
        sr.job_run.metrics.task_reruns += 1
        inst.launch = self._launch()
        backoff = retry.backoff(inst.attempt)
        backoff += backoff * retry.jitter_frac * self.sim.rng.random()
        relaunch = inst.launch + backoff
        # Recovery re-dispatches a cached plan (Plan Handler hit); only a
        # never-before-dispatched task pays plan generation again.
        if not self.admin.plan_cached(sr.job_run.job_id, sr.name):
            relaunch += self.config.admin.event_processing_time
        if inst.executor is not None:
            self._start_rerun(inst, not_before, relaunch, then)
            return
        inst.state = TaskState.WAITING
        inst.finish_time = math.inf
        self._cancel_finish(inst)
        item = self._request(sr.job_run.units[sr.unit_id], 1)
        self._waiting_reruns[item.request_id] = (inst, not_before, relaunch, then)
        self._pump_scheduler()

    def _start_rerun(
        self,
        inst: TaskInstance,
        not_before: float,
        relaunch: float,
        then: Callable[[float], None],
        executor: Optional[Executor] = None,
    ) -> None:
        """Start a re-run on the executor it holds, or on ``executor`` just
        granted to it, which also costs ``dispatch_latency``.  It is ready
        ``relaunch`` after the later of ``not_before`` and now; time it,
        queue its finish event and continue its recovery."""
        if executor is not None:
            executor.current_task = inst
            executor.start()
            inst.executor = executor
            relaunch += self.config.admin.dispatch_latency
        inst.state = TaskState.DISPATCHED
        sr = inst.stage_run
        start = not_before if not_before > self.sim.now else self.sim.now
        inst.ready = start + relaunch
        inst.start, inst.finish_time = _task_times(
            inst.ready, sr.barrier_avail, sr.pipeline_floor, sr.pipeline_first_input,
            self.config.pipeline_flush_latency, inst.read, inst.proc, inst.write)
        sr.finish_estimate = max(sr.finish_estimate, inst.finish_time)
        self._schedule_finish(inst)
        then(inst.finish_time)

    def _output_consumed(self, sr: StageRun) -> bool:
        """True when every consumer of ``sr`` has already read its output."""
        job_run = sr.job_run
        out_edges = job_run.dag.out_edges(sr.name)
        if not out_edges:
            return True
        for edge in out_edges:
            consumer = job_run.stage_runs[edge.dst]
            if consumer.completed:
                continue
            if consumer.computed and consumer.earliest_read_done <= self.sim.now:
                continue
            return False
        return True

    def _propagate_delays(self, sr: StageRun) -> None:
        """Re-time the computed stages downstream of a re-run ``sr``, in
        topological order: raise each stage's stored barrier and pipeline
        floor to its producers' finish estimates and re-time its in-flight
        instances from their own ``ready``.  Inputs only rise, so finishes
        only move later, and a task whose inputs did not move keeps its
        times and its event."""
        job_run = sr.job_run
        dag = job_run.dag
        order = dag.topo_order()
        cone = {sr.name}
        flush = self.config.pipeline_flush_latency
        for name in order[order.index(sr.name) + 1:]:
            if not any(pred in cone for pred in dag.predecessors(name)):
                continue
            cone.add(name)
            consumer = job_run.stage_runs[name]
            if not consumer.computed or consumer.completed:
                continue
            floor = consumer.pipeline_floor
            barrier = consumer.barrier_avail
            for edge in dag.in_edges(name):
                producer = job_run.stage_runs[edge.src]
                if self._edge_streams(job_run, edge, consumer):
                    floor = max(floor, producer.finish_estimate)
                else:
                    barrier = max(barrier, producer.finish_estimate)
            consumer.barrier_avail = barrier
            consumer.pipeline_floor = floor
            first = consumer.pipeline_first_input
            for inst in consumer.instances:
                if inst.state != TaskState.DISPATCHED or inst.finish_time == math.inf:
                    continue
                inst.start, finish = _task_times(
                    inst.ready, barrier, floor, first, flush, inst.read, inst.proc, inst.write)
                if finish > inst.finish_time:
                    inst.finish_time = finish
                    consumer.finish_estimate = max(consumer.finish_estimate, finish)
                    self._schedule_finish(inst)
