"""Plain-text rendering for benchmark output: paper-vs-measured tables."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned text table."""
    materialised = [
        [
            float_format.format(cell) if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    title: str, series: Iterable[tuple], x_label: str = "day", y_label: str = "value"
) -> str:
    """Render a (x, y) series as a small text sparkline table."""
    rows = list(series)
    if not rows:
        return f"{title}: (empty)"
    values = [row[1] for row in rows]
    peak = max(values) or 1
    lines = [title]
    for row in rows:
        bar = "#" * int(30 * row[1] / peak)
        lines.append(f"  {x_label} {row[0]:>4}: {row[1]:>12,.0f} {bar}")
    return "\n".join(lines)


def side_by_side(measured: float, paper: float, label: str) -> str:
    """One comparison line: measured vs paper with the ratio."""
    ratio = measured / paper if paper else float("nan")
    return f"{label:<46} measured {measured:>12,.3f}   paper {paper:>12,.3f}   ratio {ratio:.2f}"
