"""Spark baseline (the Fig. 9 / Table I comparator).

Section V-C attributes Spark's gap to two mechanisms, both modelled here:

1. per-job executor launching — "launching all the critical tasks takes
   over 71s" for Q9 (package download + JVM start), i.e. the COLDSTART
   launch model; and
2. disk-based shuffle — "saving and loading shuffle data to/from disks in
   Spark take 137.8s and 133.9s" for Q9, i.e. the DISK shuffle scheme on
   every edge.

Spark schedules stage-at-a-time (each stage is its own unit, submitted when
its shuffle dependencies complete) and runs tasks in waves as slots free up
rather than gang-scheduling, hence ``gang=False``.  Stage boundaries mean
no cross-stage pipelining.
"""

from __future__ import annotations

from ..codec import replace
from ..core.partition import StagePartitioner
from ..core.policies import (
    ExecutionPolicy,
    FailureRecovery,
    LaunchModel,
    SubmissionOrder,
)
from ..core.shuffle import ShuffleScheme


def spark_policy(**overrides: object) -> ExecutionPolicy:
    """Build the Spark baseline policy."""
    return replace(ExecutionPolicy(
        name="spark",
        partitioner=StagePartitioner(),
        submission=SubmissionOrder.CONSERVATIVE,
        shuffle=ShuffleScheme.DISK,
        launch=LaunchModel.COLDSTART,
        recovery=FailureRecovery.FINE_GRAINED,
        pipelined_execution=False,
        gang=False,
    ), **overrides)
