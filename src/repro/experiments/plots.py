"""Text rendering of experiment series: sparklines and scatter plots.

The CLI and examples render figures as plain text so the reproduction has
no plotting dependencies; each function returns a string.
"""

from __future__ import annotations

from typing import Sequence

_BARS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render ``values`` as a single-line intensity strip."""
    if not values:
        return ""
    step = max(1, len(values) // width)
    sampled = list(values)[::step][:width]
    peak = max(sampled)
    if peak <= 0:
        return " " * len(sampled)
    return "".join(
        _BARS[min(len(_BARS) - 1, int(v / peak * (len(_BARS) - 1)))] for v in sampled
    )


def xy_plot(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    height: int = 12,
    width: int = 60,
) -> str:
    """Plot one or more y-series against shared x values on an ASCII grid."""
    if not xs:
        return ""
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length mismatch")
    all_y = [y for ys in series.values() for y in ys]
    y_max = max(all_y) or 1.0
    y_min = min(0.0, min(all_y))
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = "ox+*#@"
    for index, (name, ys) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in zip(xs, ys):
            col = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            grid[row][col] = marker
    lines = [f"{y_max:>10.2f} ┤" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_min:>10.2f} ┤" + "".join(grid[-1]))
    lines.append(" " * 12 + "-" * width)
    lines.append(f"{'x:':>12} {x_min:g} .. {x_max:g}")
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
