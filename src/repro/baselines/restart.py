"""Job-restart recovery baseline (Figs. 14-15 comparator).

Identical to Swift in every respect except failure handling: any failure
restarts the whole job ("the most straightforward way to handle failures is
to re-run the whole job", Section IV).
"""

from __future__ import annotations

from ..core.policies import ExecutionPolicy, FailureRecovery, swift_policy


def restart_policy(**overrides: object) -> ExecutionPolicy:
    """Swift's configuration with whole-job-restart failure recovery."""
    return swift_policy(
        **{"name": "swift_restart", "recovery": FailureRecovery.JOB_RESTART, **overrides}
    )
