"""Lint/type gates for the typed facade, run as part of the test entrypoint.

The lint and type gates are skipped when the tool is not installed (the
test container ships without them); with the ``dev`` extra installed they
enforce a clean ``ruff check`` on the whole tree and ``mypy --strict`` on
the stable ``repro.api`` / ``repro.obs`` surfaces and ``repro.codec``.  The export-surface
check always runs: every public package's ``__all__`` must resolve.
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=600
    )


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = _run(["ruff", "check", "src", "tests"])
    assert proc.returncode == 0, f"ruff findings:\n{proc.stdout}{proc.stderr}"


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_on_stable_facade():
    proc = _run([
        sys.executable, "-m", "mypy", "--strict",
        "src/repro/api", "src/repro/obs", "src/repro/codec.py",
    ])
    assert proc.returncode == 0, f"mypy findings:\n{proc.stdout}{proc.stderr}"


@pytest.mark.parametrize(
    "module", ["repro", "repro.core", "repro.obs", "repro.api", "repro.sim"]
)
def test_public_exports_resolve(module):
    """``from <module> import *`` works: every ``__all__`` name exists, once."""
    mod = importlib.import_module(module)
    names = list(mod.__all__)
    assert len(names) == len(set(names)), sorted(
        n for n in set(names) if names.count(n) > 1
    )
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing: {missing}"
