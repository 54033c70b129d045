"""Campaign shrinking: minimize a failing campaign to a small repro.

Exploits sim determinism: re-running a candidate campaign is cheap and
exact, so a ddmin-style greedy event-subset pass followed by per-event
time bisection converges quickly.  The returned campaign still violates at
least one invariant and is locally minimal — removing any single event
makes it pass.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .campaign import Campaign

#: A predicate that runs a campaign and reports whether it still fails.
StillFails = Callable[[Campaign], bool]


def _subset_pass(
    campaign: Campaign, still_fails: StillFails, budget: list[int]
) -> Campaign:
    """Greedy delta-debugging over the event list.

    Tries dropping progressively smaller chunks (half, quarter, ...,
    single events); keeps any reduction that still fails.
    """
    events = list(campaign.events)
    chunk = max(1, len(events) // 2)
    while chunk >= 1 and len(events) > 1:
        reduced = False
        start = 0
        while start < len(events) and budget[0] > 0:
            candidate = events[:start] + events[start + chunk:]
            if not candidate:
                start += chunk
                continue
            budget[0] -= 1
            if still_fails(replace(campaign, events=candidate)):
                events = candidate
                reduced = True
                # Do not advance: the chunk at ``start`` changed.
            else:
                start += chunk
        if not reduced or budget[0] <= 0:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return replace(campaign, events=events)


def _bisect_times(
    campaign: Campaign,
    still_fails: StillFails,
    budget: list[int],
    rounds: int = 6,
) -> Campaign:
    """Per-event time bisection toward the earliest still-failing time.

    Earlier injection times make repros easier to read (less healthy
    execution before the trigger) and often collapse distinct seeds onto
    the same canonical schedule.
    """
    events = list(campaign.events)
    for i, event in enumerate(events):
        lo, hi = 0.0, event.at_fraction
        best = event.at_fraction
        for _ in range(rounds):
            if budget[0] <= 0 or hi - lo < 1e-3:
                break
            mid = round((lo + hi) / 2, 4)
            candidate = events[:i] + [replace(event, at_fraction=mid)] + events[i + 1:]
            budget[0] -= 1
            if still_fails(replace(campaign, events=candidate)):
                best = mid
                hi = mid
            else:
                lo = mid
        if best != event.at_fraction:
            events[i] = replace(event, at_fraction=best)
    return replace(campaign, events=events)


def shrink_campaign(
    campaign: Campaign,
    still_fails: StillFails,
    max_runs: int = 120,
) -> Campaign:
    """Minimize ``campaign`` while it keeps failing ``still_fails``.

    ``max_runs`` bounds the total number of candidate executions across
    both passes.  The input campaign must itself fail; the result is marked
    ``shrunk=True``.
    """
    if not still_fails(campaign):
        raise ValueError("cannot shrink a passing campaign")
    budget = [max_runs]
    shrunk = _subset_pass(campaign, still_fails, budget)
    shrunk = _bisect_times(shrunk, still_fails, budget)
    # One more subset pass: earlier times sometimes make events redundant.
    shrunk = _subset_pass(shrunk, still_fails, budget)
    shrunk.shrunk = True
    return shrunk
