"""Tests for the text plotting helpers."""

from __future__ import annotations

import pytest

from repro.experiments.plots import sparkline, xy_plot


def test_sparkline_basic():
    line = sparkline([0, 1, 2, 3, 4, 5])
    assert len(line) == 6
    assert line[0] == " " and line[-1] == "@"


def test_sparkline_empty_and_flat():
    assert sparkline([]) == ""
    assert set(sparkline([0, 0, 0])) == {" "}


def test_sparkline_downsamples():
    assert len(sparkline(list(range(1000)), width=50)) <= 50


def test_xy_plot_contains_markers_and_legend():
    text = xy_plot([1, 2, 3], {"ideal": [1, 2, 3], "measured": [1, 1.8, 2.5]})
    assert "o=ideal" in text
    assert "x=measured" in text
    assert "o" in text and "x" in text
    assert "x: 1 .. 3" in text


def test_xy_plot_length_mismatch():
    with pytest.raises(ValueError):
        xy_plot([1, 2], {"a": [1.0]})
    assert xy_plot([], {}) == ""
