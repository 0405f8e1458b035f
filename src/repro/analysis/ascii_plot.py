"""Terminal line plots.

matplotlib is not available in the reproduction environment, so figures are
rendered as ASCII charts (plus CSV files for external plotting).  One marker
character per series; overlapping points show the last series drawn.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.checks import check_number

_MARKERS = "ABHRMNGPXYZW"


def _format_val(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.2e}"
    return f"{v:.3g}"


def ascii_plot(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 72,
    height: int = 18,
    logy: bool = False,
) -> str:
    """Render a multi-series line chart as text.

    Parameters
    ----------
    x:
        Shared x coordinates (ascending).
    series:
        Name → y values (same length as ``x``).
    logy:
        Plot ``log10(y)``; zero/negative values are clamped to the smallest
        positive value present.
    """
    if not x:
        raise ValueError("x must be non-empty")
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValueError(f"series {name!r} length {len(ys)} != len(x) {len(x)}")
    check_number("width", width, ge=20, integer=True)
    check_number("height", height, ge=5, integer=True)

    all_y = [float(v) for ys in series.values() for v in ys]
    if logy:
        positive = [v for v in all_y if v > 0]
        floor = min(positive) if positive else 1e-12
        transform = lambda v: math.log10(max(v, floor))  # noqa: E731
    else:
        transform = lambda v: v  # noqa: E731
    ty = [transform(v) for v in all_y]
    y_min, y_max = min(ty), max(ty)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = float(x[0]), float(x[-1])
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]

    def to_col(xv: float) -> int:
        return min(width - 1, int((xv - x_min) / (x_max - x_min) * (width - 1)))

    def to_row(yv: float) -> int:
        frac = (transform(yv) - y_min) / (y_max - y_min)
        return min(height - 1, int((1.0 - frac) * (height - 1)))

    legend: list[str] = []
    for idx, (name, ys) in enumerate(series.items()):
        marker = _MARKERS[idx % len(_MARKERS)]
        legend.append(f"{marker}={name}")
        prev: tuple[int, int] | None = None
        for xv, yv in zip(x, ys):
            col, row = to_col(float(xv)), to_row(float(yv))
            if prev is not None:
                # Connect consecutive points with interpolated dots.
                pc, pr = prev
                steps = max(abs(col - pc), abs(row - pr))
                for s in range(1, steps):
                    ic = pc + round((col - pc) * s / steps)
                    ir = pr + round((row - pr) * s / steps)
                    if grid[ir][ic] == " ":
                        grid[ir][ic] = "."
            grid[row][col] = marker
            prev = (col, row)

    # Assemble with a y-axis gutter.
    top_label = _format_val(10 ** y_max if logy else y_max)
    bottom_label = _format_val(10 ** y_min if logy else y_min)
    gutter = max(len(top_label), len(bottom_label)) + 1
    lines: list[str] = []
    if title:
        lines.append(title.center(width + gutter + 1))
    for r, row in enumerate(grid):
        if r == 0:
            label = top_label.rjust(gutter)
        elif r == height - 1:
            label = bottom_label.rjust(gutter)
        else:
            label = " " * gutter
        lines.append(f"{label}|{''.join(row)}")
    lines.append(" " * gutter + "+" + "-" * width)
    x_axis = f"{_format_val(x_min)}{' ' * max(1, width - len(_format_val(x_min)) - len(_format_val(x_max)))}{_format_val(x_max)}"
    lines.append(" " * (gutter + 1) + x_axis)
    footer = "  ".join(legend)
    if xlabel or ylabel:
        footer += f"   [{xlabel} vs {ylabel}{' (log y)' if logy else ''}]"
    lines.append(footer)
    return "\n".join(lines)


__all__ = ["ascii_plot"]
