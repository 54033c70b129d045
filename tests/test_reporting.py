"""Tests for the markdown report generator."""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentResult
from repro.experiments.reporting import _markdown_table, _sections, render_section


def test_markdown_table_rendering():
    result = ExperimentResult(name="t")
    result.add(metric="a", value=1.234, label="x")
    result.add(metric="b", value=2.0, label="y")
    table = _markdown_table(result)
    lines = table.splitlines()
    assert lines[0] == "| metric | value | label |"
    assert lines[1] == "|---|---|---|"
    assert "| a | 1.23 | x |" in table


def test_markdown_table_empty():
    assert _markdown_table(ExperimentResult(name="e")) == "_(no rows)_"


def test_sections_cover_every_figure_and_table():
    keys = [section.key for section in _sections()]
    assert len(keys) == len(set(keys))
    for expected in ("fig3", "fig8", "fig9a", "fig9b", "table1", "fig10",
                     "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"):
        assert expected in keys
    assert sum(1 for k in keys if k.startswith("ablation")) >= 6


def test_sections_have_paper_claims():
    for section in _sections():
        assert section.paper_claim
        assert section.title
        assert callable(section.runner)
        assert callable(section.check)


#: Sections whose runner takes under about a second serially; the rest
#: (fig8, fig10, fig11, fig15, fig16, ablation-failure-rate) are checked
#: by ``python -m repro report``.
_FAST_SECTIONS = (
    "fig3", "fig9a", "fig9b", "table1", "fig12", "fig13", "fig14",
    "ablation-partitioning", "ablation-adaptive", "ablation-heartbeat",
    "ablation-cache", "ablation-submission", "shuffle-recovery",
)


@pytest.mark.parametrize("key", _FAST_SECTIONS)
def test_fast_section_claim_holds(key):
    [section] = [s for s in _sections() if s.key == key]
    assert section.check(section.runner()) == []


def test_check_reports_failed_conditions():
    [section] = [s for s in _sections() if s.key == "shuffle-recovery"]
    result = ExperimentResult(name="fake")
    result.add(variant="v1", makespan_s=20.0, recovery_s=5.0, recovery_path="")
    result.add(variant="v2", makespan_s=21.0, recovery_s=6.0, recovery_path="")
    failed = section.check(result)
    assert failed == ["v2 does not recover faster than v1"]
    block = render_section(section, result, failed)
    assert block.startswith(f"## {section.title}")
    assert block.endswith("**Check: FAILED** — " + failed[0] + ".")
    assert render_section(section, result, []).endswith("**Check:** passed.")
