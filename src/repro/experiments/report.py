"""Figure reporting: print the series a paper figure shows, save CSV.

Outputs are intentionally paper-shaped: one column per scheduler, one row
per VM-count sweep point, so the terminal output can be compared directly
against the plots in the PDF.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.compare import check_figure
from repro.analysis.tables import format_table, write_csv
from repro.experiments.figures import FigureData


def figure_rows(data: FigureData) -> list[dict[str, object]]:
    """Wide-format rows: ``num_vms`` plus one column per scheduler."""
    rows: list[dict[str, object]] = []
    for i, xv in enumerate(data.x):
        row: dict[str, object] = {data.x_key: xv}
        for name, ys in data.series.items():
            row[name] = ys[i]
        rows.append(row)
    return rows


def render_figure(data: FigureData, logy: bool = False) -> str:
    """Full text report for one figure: table + ASCII plot + shape checks."""
    parts = [
        f"== {data.experiment_id}: {data.title} ==",
        format_table(figure_rows(data)),
        "",
        ascii_plot(
            data.x,
            data.series,
            title=data.title,
            xlabel=data.xlabel,
            ylabel=data.ylabel,
            logy=logy,
        ),
    ]
    checks = check_figure(data)
    if checks:
        parts.append("")
        parts.extend(str(c) for c in checks)
    return "\n".join(parts)


def save_figure(data: FigureData, out_dir: str | Path) -> Path:
    """Write the long-format CSV for a figure; returns the file path."""
    out_dir = Path(out_dir)
    return write_csv(data.to_rows(), out_dir / f"{data.experiment_id}.csv")


__all__ = [
    "figure_rows",
    "render_figure",
    "save_figure",
]
