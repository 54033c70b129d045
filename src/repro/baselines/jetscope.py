"""JetScope baseline (Figs. 10-11 comparator).

JetScope treats "a whole job as the basic unit for scheduling and failure
recovery" (Section I-B): the entire DAG is gang-scheduled at once on
pre-launched executors, so no job starts until the cluster can hold all of
its tasks — the source of the resource fragmentation and executor idling
that Fig. 3 quantifies and Fig. 10's fluctuating executor counts show.
Shuffle is in-memory (JetScope is an interactive engine), and failure
recovery restarts the whole job.
"""

from __future__ import annotations

from ..codec import replace
from ..core.partition import WholeJobPartitioner
from ..core.policies import (
    ExecutionPolicy,
    FailureRecovery,
    LaunchModel,
    SubmissionOrder,
)
from ..core.shuffle import ShuffleScheme


def jetscope_policy(**overrides: object) -> ExecutionPolicy:
    """Build the JetScope baseline policy."""
    return replace(ExecutionPolicy(
        name="jetscope",
        partitioner=WholeJobPartitioner(),
        submission=SubmissionOrder.CONSERVATIVE,
        shuffle=ShuffleScheme.DIRECT,
        launch=LaunchModel.PRELAUNCHED,
        recovery=FailureRecovery.JOB_RESTART,
        pipelined_execution=True,
        gang=True,
    ), **overrides)
