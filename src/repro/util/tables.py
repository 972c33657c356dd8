"""Plain-text table rendering for experiment reports.

The paper reports its evaluation as tables (Tables II, IV, VII, VIII) and
gnuplot figures.  The experiment harness renders the same rows as ASCII
tables so results can be compared side by side in a terminal; the scale
presets in :mod:`repro.experiments.settings` record how each run's
parameters depart from the paper's.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


def _fmt_cell(value: Any, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    precision: int = 2,
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as a fixed-width ASCII table.

    Floats are rounded to ``precision`` decimal places; every column is
    padded to the width of its widest cell.
    """
    str_rows = [[_fmt_cell(v, precision) for v in row] for row in rows]
    str_headers = [str(h) for h in headers]
    ncols = len(str_headers)
    for r in str_rows:
        if len(r) != ncols:
            raise ValueError(
                f"row has {len(r)} cells but table has {ncols} columns: {r}"
            )
    widths = [
        max(len(str_headers[c]), *(len(r[c]) for r in str_rows)) if str_rows else len(str_headers[c])
        for c in range(ncols)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(str_headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_kv(mapping: Mapping[str, Any], precision: int = 4, title: str | None = None) -> str:
    """Render a mapping as aligned ``key : value`` lines."""
    keys = [str(k) for k in mapping]
    width = max((len(k) for k in keys), default=0)
    lines = []
    if title:
        lines.append(title)
    for k, v in mapping.items():
        lines.append(f"{str(k).ljust(width)} : {_fmt_cell(v, precision)}")
    return "\n".join(lines)
