"""Report-row builders for the paper-style tables.

Tables II, IV, VII and VIII all share the same layout: one column per
approximation ratio, with rows for per-session rates, overall throughput,
minimum rate, per-session tree counts and running time (MST-operation
counts).  These helpers turn :class:`FlowSolution` objects into those rows
and into generic comparison tables (the examples' side-by-side reports).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.core.result import FlowSolution
from repro.util.tables import format_table


def solution_table_row(solution: FlowSolution) -> Dict[str, float]:
    """Flatten one solution into the fields the paper's tables report.

    Tables II, IV, VII and VIII both render these rows and save them as
    their per-ratio ``columns``.
    """
    row: Dict[str, float] = {}
    for index, session_result in enumerate(solution.sessions):
        row[f"rate_session_{index + 1}"] = session_result.rate
        row[f"trees_session_{index + 1}"] = float(session_result.num_trees)
    row["overall_throughput"] = solution.overall_throughput
    row["min_rate"] = solution.min_rate
    row["oracle_calls"] = float(solution.oracle_calls)
    if "prescale_oracle_calls" in solution.extra:
        row["main_oracle_calls"] = float(solution.extra["main_oracle_calls"])
        row["prescale_oracle_calls"] = float(solution.extra["prescale_oracle_calls"])
    return row


def solutions_to_table(
    solutions: Mapping[float, FlowSolution],
    row_order: Sequence[str] | None = None,
    precision: int = 2,
    title: str | None = None,
) -> str:
    """Render a "metric x approximation ratio" table like the paper's Table II.

    ``solutions`` maps the approximation ratio (column) to the solution.
    """
    if not solutions:
        return title or ""
    ratios = sorted(solutions.keys())
    rows_by_ratio = {ratio: solution_table_row(solutions[ratio]) for ratio in ratios}
    if row_order is None:
        # Preserve the order of the first row's keys.
        row_order = list(rows_by_ratio[ratios[0]].keys())
    headers = ["metric"] + [f"{ratio:g}" for ratio in ratios]
    table_rows: List[List[object]] = []
    for metric in row_order:
        table_rows.append(
            [metric] + [rows_by_ratio[ratio].get(metric, float("nan")) for ratio in ratios]
        )
    return format_table(headers, table_rows, precision=precision, title=title)


def compare_solutions(
    solutions: Mapping[str, FlowSolution], precision: int = 2, title: str | None = None
) -> str:
    """Side-by-side comparison of named solutions (one column per algorithm)."""
    if not solutions:
        return title or ""
    names = list(solutions.keys())
    rows_by_name = {name: solution_table_row(solutions[name]) for name in names}
    metrics: List[str] = []
    for name in names:
        for key in rows_by_name[name]:
            if key not in metrics:
                metrics.append(key)
    headers = ["metric"] + names
    table_rows: List[List[object]] = []
    for metric in metrics:
        table_rows.append(
            [metric] + [rows_by_name[name].get(metric, float("nan")) for name in names]
        )
    return format_table(headers, table_rows, precision=precision, title=title)
