"""The one-kernel-event-per-task completion path, kept as a test oracle.

:class:`PerTaskRuntime` is a :class:`repro.core.runtime.SwiftRuntime` that
never defers a finish: every computed batch is moved out of the finish
ledger at once and each task finish becomes its own kernel event, which
finalizes the task through the executor state machine
(``Executor.release``) rather than the ledger's unrolled release.  With
the ledger always empty, every ``_flush_finishes`` call is a no-op.
``tests/test_determinism.py`` requires the production runtime to match it
exactly, with and without failure plans.
"""

from __future__ import annotations

import math

from repro.core.metrics import TaskTiming
from repro.core.runtime import _EPS, StageRun, SwiftRuntime, TaskInstance, TaskState


class PerTaskRuntime(SwiftRuntime):
    """SwiftRuntime that realises each task finish as a kernel event."""

    def _schedule_drain(self, sr: StageRun) -> None:
        # The ledger holds only the batch just computed: turn each entry into
        # a per-task event, in schedule order.
        batch = sorted(self._finish_ledger, key=lambda entry: entry[1])
        self._finish_ledger.clear()
        for _, _, inst in batch:
            inst.event_scheduled = False
            self._schedule_finish(inst)

    def _schedule_finish(self, inst: TaskInstance) -> None:
        if inst.event_scheduled:
            return
        inst.event_scheduled = True
        self.sim.schedule_at(
            max(inst.finish_time, self.sim.now), self._on_task_finish, inst
        )

    def _on_task_finish(self, inst: TaskInstance) -> None:  # type: ignore[override]
        inst.event_scheduled = False
        job_run = inst.stage_run.job_run
        if job_run.aborted or job_run.failed or inst.state == TaskState.DEAD:
            return
        if inst.finish_time == math.inf:
            # Suspended by a machine crash; recovery will reschedule.
            return
        if inst.finish_time > self.sim.now + _EPS:
            # Recovery moved the finish; chase it.
            self._schedule_finish(inst)
            return
        if inst.state != TaskState.DISPATCHED:
            return
        inst.state = TaskState.FINISHED
        self._finalize_instance(inst)
        sr = inst.stage_run
        sr.n_finalized += 1
        if sr.n_finalized == len(sr.instances) and not sr.completed:
            self._on_stage_completed(sr)
        self._pump_scheduler()

    def _finalize_instance(self, inst: TaskInstance) -> None:
        sr = inst.stage_run
        metrics = sr.job_run.metrics
        timing = TaskTiming(
            job_id=sr.job_run.job.job_id,
            stage=sr.name,
            index=inst.index,
            attempt=inst.attempt,
            plan_arrive=inst.plan_arrive,
            data_arrive=min(inst.data_arrive, inst.finish_time),
            finish=inst.finish_time,
            launch_time=inst.launch,
            shuffle_read_time=inst.read,
            processing_time=inst.proc,
            shuffle_write_time=inst.write,
        )
        metrics.tasks.append(timing)
        self.busy_intervals.append((inst.plan_arrive, inst.finish_time))
        if self.tracer.enabled:
            self.tracer.task_span(
                sr.name, sr.job_run.job.job_id, inst.index, inst.attempt,
                inst.plan_arrive, inst.data_arrive, inst.finish_time,
                inst.launch, inst.read, inst.proc, inst.write,
            )
        if inst.executor is not None:
            inst.executor.release()
            inst.executor = None
