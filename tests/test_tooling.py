"""Lint/type gates for the typed facade, run as part of the test entrypoint.

The lint and type gates are skipped when the tool is not installed (the
test container ships without them); with the ``dev`` extra installed they
enforce a clean ``ruff check`` on the whole tree and ``mypy --strict`` on
the stable ``repro.api`` / ``repro.obs`` surfaces and ``repro.codec``.  The export-surface
check always runs: every public package's ``__all__`` must resolve, and
every ``python -m repro`` line in README's shell blocks must parse.
"""

from __future__ import annotations

import importlib
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser

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


def _numpy_floor(text: str) -> tuple[int, ...]:
    (floor,) = re.findall(r"[\"']numpy>=([0-9.]+)[\"']", text)
    return tuple(int(part) for part in floor.split("."))


def test_numpy_floor_is_declared_once_and_met():
    """``pyproject.toml`` and ``setup.py`` pin one numpy floor, and the
    installed numpy meets it (the string kernels need ``np.strings.slice``)."""
    pyproject = _numpy_floor((ROOT / "pyproject.toml").read_text())
    setup = _numpy_floor((ROOT / "setup.py").read_text())
    assert pyproject == setup
    installed = tuple(int(p) for p in re.findall(r"\d+", np.__version__)[:len(setup)])
    assert installed >= setup, (np.__version__, setup)


def _readme_cli_commands() -> list[tuple[str, list[str]]]:
    """``(line, argv)`` for every ``python -m repro`` line in README's
    shell blocks, ``argv`` being the words after ``repro``."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```(?:bash|sh|shell)\n(.*?)```", text, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            for i in range(len(words) - 2):
                if words[i].startswith("python") and words[i + 1:i + 3] == ["-m", "repro"]:
                    argv = words[i + 3:]
                    ends = [k for k, w in enumerate(argv) if w in ("|", "&&", ";", ">")]
                    commands.append((line, argv[:ends[0]] if ends else argv))
    return commands


def test_readme_cli_lines_parse():
    """A stale flag in README (say, a removed ``--engine``) fails here."""
    commands = _readme_cli_commands()
    assert len(commands) >= 10
    parser = build_parser()
    stale = []
    for line, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            stale.append(line)
    assert not stale, stale
