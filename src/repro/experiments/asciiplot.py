"""Dependency-free ASCII rendering of experiment series.

The paper's figures are scatter/line plots of offset vs time and PDFs.
The CLI renders the same shapes in the terminal so a reproduction run can
be eyeballed against the paper without matplotlib.
"""

from __future__ import annotations

from typing import Optional

from .harness import TimeSeries


def render_series(
    series: TimeSeries,
    width: int = 72,
    height: int = 14,
    y_label: str = "",
    y_bounds: Optional[tuple] = None,
) -> str:
    """Scatter-plot one series as ASCII (time on x, value on y)."""
    if not series.values:
        return f"[{series.label}: empty]"
    values = series.values
    lo = min(values) if y_bounds is None else y_bounds[0]
    hi = max(values) if y_bounds is None else y_bounds[1]
    if hi == lo:
        hi = lo + 1
    grid = [[" "] * width for _ in range(height)]
    count = len(values)
    for index, value in enumerate(values):
        x = min(width - 1, index * width // count)
        clamped = min(max(value, lo), hi)
        y = int((clamped - lo) / (hi - lo) * (height - 1))
        row = height - 1 - y
        grid[row][x] = "*" if grid[row][x] == " " else "#"
    lines = [f"{series.label}  [{lo:.2f} .. {hi:.2f}] {y_label}"]
    lines.append("+" + "-" * width + "+")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    return "\n".join(lines)

