"""ASCII table rendering for the benchmark harnesses."""

from __future__ import annotations


def render_table(headers: list, rows: list, title: str = "") -> str:
    """Render a simple aligned ASCII table."""
    columns = len(headers)
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([str(c) for c in row] + [""] * (columns - len(row)))
    widths = [max(len(row[i]) for row in cells) for i in range(columns)]

    def line(row):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(row, widths)).rstrip()

    out = []
    if title:
        out.append(title)
    out.append(line(cells[0]))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in cells[1:])
    return "\n".join(out)


def fmt_seconds(value: float) -> str:
    if value >= 100:
        return f"{value:.0f} s"
    if value >= 1:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.0f} us"
