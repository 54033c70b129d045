"""Unit tests for the parallel cell harness (repro.experiments.parallel)."""

from __future__ import annotations

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    Cell,
    clear_memory_cache,
    default_jobs,
    execution_plan,
    run_cells,
    set_default_jobs,
)

#: A trivial picklable cell: ``json.dumps(obj=...)`` returns a string and
#: exercises the full import-by-name worker path without any simulation.
def _echo_cell(value):
    return Cell("json", "dumps", {"obj": value})


@pytest.fixture(autouse=True)
def _clean_harness_state():
    clear_memory_cache()
    set_default_jobs(None)
    yield
    clear_memory_cache()
    set_default_jobs(None)


def test_cell_key_is_stable_and_spec_sensitive():
    a = _echo_cell([1, 2])
    assert a.key() == _echo_cell([1, 2]).key()
    assert a.key() != _echo_cell([1, 3]).key()
    assert a.key() != Cell("json", "loads", {"obj": [1, 2]}).key()


def test_run_cells_preserves_submission_order():
    cells = [_echo_cell(i) for i in (3, 1, 2)]
    assert run_cells(cells) == ["3", "1", "2"]


def test_run_cells_parallel_matches_serial():
    cells = [_echo_cell([i, i + 1]) for i in range(6)]
    serial = run_cells(cells, jobs=1)
    clear_memory_cache()
    assert run_cells(cells, jobs=3) == serial


def test_memory_cache_serves_repeat_calls(monkeypatch):
    cell = _echo_cell("cached")
    assert run_cells([cell]) == ['"cached"']
    # A second call must not re-execute: a miss would call the poisoned
    # entry point and raise.
    def poisoned(*args):
        raise AssertionError("cache miss")

    monkeypatch.setattr(parallel, "_call_cell", poisoned)
    assert run_cells([cell]) == ['"cached"']


def test_normalization_makes_fresh_equal_cached(monkeypatch):
    # terasort_cell returns floats; a payload computed fresh in a worker
    # process must equal the cached in-process one bit for bit.
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
    cells = [
        Cell("repro.experiments.cells", "terasort_cell", {"m": m, "n": m})
        for m in (10, 12)
    ]
    serial = run_cells(cells, jobs=1)
    clear_memory_cache()
    assert run_cells(cells, jobs=2) == serial
    assert isinstance(serial[0]["swift_s"], float)


def test_non_json_payload_raises():
    with pytest.raises(TypeError):
        run_cells([Cell("builtins", "object", {})])


def test_default_jobs_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert default_jobs() == 1  # the environment is not a second route
    set_default_jobs(2)
    assert default_jobs() == 2
    set_default_jobs(None)
    assert default_jobs() == 1


def test_invalid_jobs_rejected():
    with pytest.raises(ValueError):
        set_default_jobs(0)
    with pytest.raises(ValueError):
        run_cells([_echo_cell(1)], jobs=0)


def test_execution_plan_fans_out_with_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 8)
    assert execution_plan(3, jobs=3) == ("process-pool", 3)
    # Capped by cell count and by CPU count.
    assert execution_plan(2, jobs=16) == ("process-pool", 2)
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
    assert execution_plan(100, jobs=16) == ("process-pool", 4)


def test_execution_plan_degrades_to_serial_on_one_cpu(monkeypatch):
    # A --jobs 3 run on a single-CPU host must not pay pool spin-up.
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
    assert execution_plan(3, jobs=3) == ("serial", 1)


def test_execution_plan_degrades_to_serial_for_few_cells(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 8)
    assert execution_plan(1, jobs=8) == ("serial", 1)
    assert execution_plan(0, jobs=8) == ("serial", 1)


def test_execution_plan_uses_default_jobs(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 8)
    set_default_jobs(4)
    assert execution_plan(10) == ("process-pool", 4)
    set_default_jobs(1)
    assert execution_plan(10) == ("serial", 1)


def test_execution_plan_rejects_invalid_jobs():
    with pytest.raises(ValueError):
        execution_plan(4, jobs=0)
