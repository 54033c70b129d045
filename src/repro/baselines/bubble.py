"""Bubble Execution baseline (Figs. 10-11 comparator).

Bubble Execution "partitions a job DAG according to the shuffle data size"
into memory-bounded bubbles, gang-schedules each bubble, and materialises
inter-bubble data to disk.  Section V-D attributes Swift's edge over it to:
(1) partitioning by data size causes long waits — executors are assigned
when the bubble is submitted and idle until inputs are ready (we model this
with EAGER submission), and (2) disk-based shuffle between bubbles versus
Swift's in-memory Cache Workers (DISK on cross-unit edges here).
"""

from __future__ import annotations

from ..codec import replace
from ..core.partition import BubblePartitioner
from ..core.policies import (
    ExecutionPolicy,
    FailureRecovery,
    LaunchModel,
    SubmissionOrder,
)
from ..core.shuffle import ShuffleScheme


def bubble_policy(
    memory_budget_bytes: float = 64 * 1024 ** 3, **overrides: object
) -> ExecutionPolicy:
    """Build the Bubble Execution baseline policy."""
    return replace(ExecutionPolicy(
        name="bubble",
        partitioner=BubblePartitioner(memory_budget_bytes=memory_budget_bytes),
        submission=SubmissionOrder.EAGER,
        shuffle=ShuffleScheme.DIRECT,
        cross_unit_shuffle=ShuffleScheme.DISK,
        launch=LaunchModel.PRELAUNCHED,
        recovery=FailureRecovery.FINE_GRAINED,
        pipelined_execution=True,
        gang=True,
    ), **overrides)
