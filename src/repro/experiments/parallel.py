"""Parallel experiment harness: fan independent simulation cells across
worker processes, with a per-process result cache.

Every paper experiment decomposes into independent *cells* — one
(policy, configuration, seed) simulation whose result is a small JSON
payload.  A :class:`Cell` names a module-level function plus keyword
arguments built only from JSON primitives, so the spec both pickles
cleanly into a ``ProcessPoolExecutor`` worker and hashes canonically for
the cache.

Design rules that keep parallel runs byte-identical to serial ones:

* Cells never share state: each cell builds its own cluster, workload,
  and RNGs from the seeds in its kwargs.
* The cell *decomposition* of an experiment is fixed — it never depends
  on how many workers execute it, so ``--jobs 1`` and ``--jobs 8``
  produce identical rows in identical order.
* Every payload is normalised through a JSON round-trip, so a result
  computed in a worker process is indistinguishable from one computed
  in-process (tuples become lists either way), and a payload that is not
  plain JSON raises ``TypeError`` instead of reaching a table.

The cache lives in process memory only and is keyed by the spec hash: a
repeat cell inside one run (``fig11`` reusing ``fig10``'s replays, the
heartbeat ablation reusing Fig. 14's baseline) is free, and a new process
always recomputes, so an edit to the simulator can never be served stale.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

#: Fewest uncached cells worth a process pool: below this, interpreter
#: spin-up plus pickling costs about as much as just running the cell.
MIN_CELLS_FOR_POOL = 2

_default_jobs: Optional[int] = None
#: Process-wide memory cache: spec hash -> normalised payload.
_MEMORY_CACHE: dict[str, Any] = {}


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    ``module``/``func`` name a module-level function (anything importable
    under ``repro.*``); ``kwargs`` must contain only JSON primitives
    (str/int/float/bool/None and lists/dicts of them) so the spec is both
    picklable and canonically hashable.
    """

    module: str
    func: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    def key(self) -> str:
        """Stable content hash of this cell's full spec."""
        spec = {"module": self.module, "func": self.func, "kwargs": self.kwargs}
        blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def set_default_jobs(n: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` resets it).

    The CLI's ``--jobs`` flag routes through here so experiment functions
    deep inside ``figures``/``ablations`` pick it up without threading a
    parameter through every call site.
    """
    global _default_jobs
    if n is not None and n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    _default_jobs = n


def default_jobs() -> int:
    """The worker count set by :func:`set_default_jobs`, else 1."""
    return _default_jobs if _default_jobs is not None else 1


def _cpu_count() -> int:
    """Usable CPU count (monkeypatched in tests)."""
    return os.cpu_count() or 1


def execution_plan(n_cells: int, jobs: Optional[int] = None) -> tuple[str, int]:
    """How ``run_cells`` would execute ``n_cells`` uncached cells.

    Returns ``("process-pool", workers)`` or ``("serial", 1)``.  The
    effective worker count is capped by the cell count and the host's CPU
    count; when it degrades to 1 — or there are too few cells to amortise
    pool spin-up and pickling — the plan is serial, so a ``--jobs 3`` run
    on a single-CPU host never pays fan-out overhead for nothing.
    """
    requested = jobs if jobs is not None else default_jobs()
    if requested < 1:
        raise ValueError(f"jobs must be >= 1, got {requested}")
    workers = min(requested, n_cells, max(1, _cpu_count()))
    if workers <= 1 or n_cells < MIN_CELLS_FOR_POOL:
        return "serial", 1
    return "process-pool", workers


def clear_memory_cache() -> None:
    """Drop every in-process cached payload (tests use this for isolation)."""
    _MEMORY_CACHE.clear()


def _normalize(payload: Any) -> Any:
    """JSON round-trip so pooled and in-process payloads are identical."""
    return json.loads(json.dumps(payload))


def _call_cell(module: str, func: str, kwargs: dict[str, Any]) -> Any:
    """Worker entry point: import the cell function and run it.

    Module-level (not a closure) so it pickles into spawn/fork workers.
    """
    target = getattr(importlib.import_module(module), func)
    return _normalize(target(**kwargs))


def run_cells(
    cells: Sequence[Cell],
    jobs: Optional[int] = None,
) -> list[Any]:
    """Execute ``cells`` and return their payloads in submission order.

    ``jobs`` > 1 fans uncached cells across a ``ProcessPoolExecutor``;
    the merge order is always the input order, so results are identical
    to a serial run regardless of worker count or completion order.
    """
    n_jobs = jobs if jobs is not None else default_jobs()
    if n_jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {n_jobs}")

    results: list[Any] = [None] * len(cells)
    misses: list[int] = []
    for i, cell in enumerate(cells):
        key = cell.key()
        if key in _MEMORY_CACHE:
            results[i] = _MEMORY_CACHE[key]
        else:
            misses.append(i)

    if misses:
        mode, workers = execution_plan(len(misses), n_jobs)
        if mode == "process-pool":
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_call_cell, cells[i].module, cells[i].func, cells[i].kwargs)
                    for i in misses
                ]
                fresh = [future.result() for future in futures]
        else:
            fresh = [
                _call_cell(cells[i].module, cells[i].func, cells[i].kwargs)
                for i in misses
            ]
        for i, payload in zip(misses, fresh):
            _MEMORY_CACHE[cells[i].key()] = payload
            results[i] = payload

    return results

