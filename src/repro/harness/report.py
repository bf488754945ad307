"""Plain-text rendering of tables and slowdown figures."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["render_table", "markdown_table", "ascii_plot"]


def render_table(rows: Sequence[dict], title: str = "") -> str:
    """Render dict rows as an aligned ASCII table (columns from the
    first row's keys)."""
    if not rows:
        return f"-- {title}: (no rows) --" if title else "(no rows)"
    columns = list(rows[0].keys())
    widths = {c: len(str(c)) for c in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(str(row.get(column,
                                                                 ""))))
    lines = []
    if title:
        lines.append(f"-- {title} --")
    header = " | ".join(f"{c:>{widths[c]}}" for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(" | ".join(
            f"{str(row.get(c, '')):>{widths[c]}}" for c in columns))
    return "\n".join(lines)


def markdown_table(header: Sequence[str],
                   rows: Iterable[Sequence[Any]]) -> str:
    """A markdown table: the ``header`` cells, then each row's cells."""
    return "\n".join(
        ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        + ["| " + " | ".join(map(str, row)) + " |" for row in rows])


#: Plot glyphs assigned to series in order.
_GLYPHS = "ox+*#@%&$~^!"


def ascii_plot(series: Dict[str, List[Tuple[float, float]]],
               title: str = "", x_label: str = "", y_label: str = "",
               width: int = 64, height: int = 20,
               y_max: Optional[float] = None) -> str:
    """A multi-series ASCII scatter/line plot (for the figures).

    ``series`` maps a label to its (x, y) points.  Each series gets a
    glyph; the legend maps glyphs back to labels.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"-- {title}: (no data) --"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, y_max if y_max is not None else max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    for glyph, (label, pts) in zip(_GLYPHS, series.items()):
        for x, y in pts:
            column = int(round((x - x_lo) / (x_hi - x_lo) * (width - 1)))
            clipped = min(y, y_hi)
            row = int(round((clipped - y_lo) / (y_hi - y_lo)
                            * (height - 1)))
            grid[height - 1 - row][column] = glyph

    lines = []
    if title:
        lines.append(f"-- {title} --")
    for index, row in enumerate(grid):
        y_value = y_hi - index * (y_hi - y_lo) / (height - 1)
        lines.append(f"{y_value:8.1f} |" + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(f"{'':9}{x_lo:<10.1f}{x_label:^{max(0, width - 20)}}"
                 f"{x_hi:>10.1f}")
    legend = "   ".join(
        f"{glyph}={label}"
        for glyph, label in zip(_GLYPHS, series.keys()))
    lines.append(f"{y_label}  [{legend}]")
    return "\n".join(lines)
