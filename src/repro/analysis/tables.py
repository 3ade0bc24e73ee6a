"""Plain-text rendering of experiment tables and reports.

Experiments produce rows of numbers; these helpers render them as aligned
ASCII tables (for stdout and reports) and CSV (for downstream
plotting).  No external dependencies, no colour codes - output must be
readable inside pytest-benchmark logs and in piped files.
"""

from __future__ import annotations

import io
from collections.abc import Mapping, Sequence

__all__ = ["format_cell", "render_table", "render_csv", "rows_to_columns"]


def format_cell(
    value: object, *, precision: int = 3, nan_text: str = "n/a"
) -> str:
    """Render one table cell: floats rounded, everything else ``str()``.

    NaN marks "no data" (e.g. a rounds summary with zero successful
    trials) and renders as ``nan_text`` - ``n/a`` in human-facing tables,
    ``nan`` in CSV so numeric parsers keep working.
    """
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return nan_text
        if abs(value) >= 1e6 or (0 < abs(value) < 1e-3):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Aligned ASCII table with a header rule.

    Every row must have one cell per header; raises otherwise (silent
    column drift has ruined more experiment logs than any other bug).
    """
    for index, row in enumerate(rows):
        if len(row) != len(headers):
            raise ValueError(
                f"row {index} has {len(row)} cells, expected {len(headers)}"
            )
    cells = [[format_cell(value, precision=precision) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[i]) for row in cells)) if cells else len(header)
        for i, header in enumerate(headers)
    ]
    output = io.StringIO()
    if title:
        output.write(title + "\n")
    header_line = "  ".join(
        header.ljust(width) for header, width in zip(headers, widths)
    )
    output.write(header_line.rstrip() + "\n")
    output.write("  ".join("-" * width for width in widths).rstrip() + "\n")
    for row in cells:
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        output.write(line.rstrip() + "\n")
    return output.getvalue()


def render_csv(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Minimal CSV rendering (no quoting needs arise for numeric tables)."""
    lines = [",".join(headers)]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        lines.append(
            ",".join(
                format_cell(value, precision=6, nan_text="nan") for value in row
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_columns(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> Mapping[str, list[object]]:
    """Transpose rows into ``{header: column}`` for fit/check code."""
    columns: dict[str, list[object]] = {header: [] for header in headers}
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for header, value in zip(headers, row):
            columns[header].append(value)
    return columns
