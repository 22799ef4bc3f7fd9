"""Plain-text rendering of experiment results.

All figure/table reproductions print through these helpers so that the
benchmark harness regenerates the paper's artefacts as readable ASCII
tables (the series behind each plot, not the pixels).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = ["ascii_table", "format_value", "series_table"]


def format_value(value: object, precision: int = 3) -> str:
    """Human formatting: floats rounded, None blank, rest str()."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def ascii_table(
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render rows as an aligned monospace table."""
    rendered: List[List[str]] = [
        [format_value(v, precision) for v in row] for row in rows
    ]
    widths = [len(c) for c in columns]
    for row in rendered:
        if len(row) != len(columns):
            raise ValueError(f"row has {len(row)} cells, expected {len(columns)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def series_table(
    x_name: str,
    x_values: Sequence[object],
    series: dict,
    title: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Render one x-column plus one column per named series."""
    columns = [x_name] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [series[name][i] for name in series])
    return ascii_table(columns, rows, title=title, precision=precision)
