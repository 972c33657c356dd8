"""Section VI experiments: Figures 12–19 (the sessions x session-size sweep).

A two-level AS/router topology carries ``n`` concurrent sessions of a
given average size; MaxFlow, MaxConcurrentFlow and the online algorithm
are run over the whole grid and the paper's surfaces/curves extracted:

* Fig 12 — overall throughput surface (MaxFlow),
* Fig 13 — covered physical edges per overlay node,
* Fig 14 — link-utilization staircases for low/medium/high concurrency,
* Fig 15 — minimum session rate surface (MaxConcurrentFlow),
* Fig 16 — throughput ratio MaxConcurrentFlow / MaxFlow,
* Fig 17 — asymmetric rate distribution versus session size,
* Fig 18 — online / MaxFlow throughput ratio,
* Fig 19 — online / MaxConcurrentFlow minimum-rate ratio.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.api.service import build_instance
from repro.core.result import FlowSolution
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import online_sweep_runs, sweep_runs, sweep_scenario_spec
from repro.experiments.settings import run_section_cli, sweep_setting_for_scale
from repro.metrics.distribution import top_fraction_share, tree_rate_distribution
from repro.metrics.fairness import min_rate_ratio, throughput_ratio
from repro.metrics.utilization import (
    covered_edges_for_sessions,
    edges_per_node,
    link_utilization_series,
    mean_utilization,
    utilization_staircase,
)
from repro.util.tables import format_table


def _notes(scale: str) -> str:
    setting = sweep_setting_for_scale(scale)
    return (
        f"two-level topology {setting.num_ases} ASes x {setting.routers_per_as} routers, "
        f"session counts {setting.session_counts}, sizes {setting.session_sizes}, "
        f"approximation ratio {setting.ratio}"
        + (
            ""
            if scale == "paper"
            else " (reduced grid versus the paper's 10x100 topology and 1..9 x 10..90 grid)"
        )
    )


def _surface_result(
    experiment_id: str,
    title: str,
    scale: str,
    values: Dict[Tuple[int, int], float],
    value_label: str,
) -> ExperimentResult:
    setting = sweep_setting_for_scale(scale)
    counts = list(setting.session_counts)
    sizes = list(setting.session_sizes)
    grid: List[List[float]] = [
        [values[(count, size)] for size in sizes] for count in counts
    ]
    headers = ["sessions \\ size"] + [str(s) for s in sizes]
    rows = [[count] + grid[i] for i, count in enumerate(counts)]
    data = {
        "session_counts": counts,
        "session_sizes": sizes,
        "values": grid,
        "value_label": value_label,
    }
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        scale=scale,
        data=data,
        rendered=format_table(headers, rows, title=f"{title} ({value_label})"),
        notes=_notes(scale),
    )


# ----------------------------------------------------------------------
# Fig 12 / 15 / 16 — MaxFlow and MaxConcurrentFlow surfaces
# ----------------------------------------------------------------------
def _grid_scenario_specs(scale: str, algorithm: str, points) -> Dict[str, Dict]:
    """Scenario-API specs of every grid cell (re-solvable provenance)."""
    return {
        f"{count}x{size}": sweep_scenario_spec(scale, algorithm, count, size).to_jsonable()
        for count, size in points
    }


def fig12(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 12: overall throughput surface under MaxFlow."""
    runs = sweep_runs(scale, "maxflow")
    values = {point: sol.overall_throughput for point, sol in runs.items()}
    result = _surface_result(
        "fig12", "Overall Throughput (MaxFlow)", scale, values, "overall throughput"
    )
    result.data["scenario_specs"] = _grid_scenario_specs(scale, "maxflow", runs)
    return result


def fig15(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 15: minimum session rate surface under MaxConcurrentFlow."""
    runs = sweep_runs(scale, "maxconcurrent")
    values = {point: sol.min_rate for point, sol in runs.items()}
    result = _surface_result(
        "fig15", "Minimum Rate (MaxConcurrentFlow)", scale, values, "minimum session rate"
    )
    result.data["scenario_specs"] = _grid_scenario_specs(scale, "maxconcurrent", runs)
    return result


def fig16(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 16: overall throughput ratio MaxConcurrentFlow vs MaxFlow."""
    maxflow = sweep_runs(scale, "maxflow")
    concurrent = sweep_runs(scale, "maxconcurrent")
    values = {point: throughput_ratio(concurrent[point], maxflow[point]) for point in maxflow}
    result = _surface_result(
        "fig16",
        "Overall Throughput Ratio (MaxConcurrentFlow vs. MaxFlow)",
        scale,
        values,
        "throughput ratio",
    )
    result.data["scenario_specs"] = {
        "maxflow": _grid_scenario_specs(scale, "maxflow", maxflow),
        "maxconcurrent": _grid_scenario_specs(scale, "maxconcurrent", concurrent),
    }
    return result


# ----------------------------------------------------------------------
# Fig 13 — physical edges per node
# ----------------------------------------------------------------------
def fig13(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 13: number of covered physical edges per overlay node."""
    values = {
        point: edges_per_node(*build_instance(sweep_scenario_spec(scale, "maxflow", *point)))
        for point in sweep_setting_for_scale(scale).grid_points()
    }
    return _surface_result(
        "fig13", "Number of Edges per Node", scale, values, "physical edges per node"
    )


# ----------------------------------------------------------------------
# Fig 14 — link-utilization staircase
# ----------------------------------------------------------------------
def fig14(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 14: link-utilization distributions for low/high concurrency."""
    setting = sweep_setting_for_scale(scale)
    counts = sorted(setting.session_counts)
    selected_counts = sorted({counts[0], counts[len(counts) // 2], counts[-1]})
    data: Dict = {"panels": {}}
    lines: List[str] = []
    for algorithm, label in (("maxconcurrent", "MaxConcurrentFlow"), ("maxflow", "MaxFlow")):
        runs = sweep_runs(scale, algorithm)
        for count in selected_counts:
            panel = {}
            for size in setting.session_sizes:
                solution = runs[(count, size)]
                covered = covered_edges_for_sessions(
                    *build_instance(sweep_scenario_spec(scale, algorithm, count, size))
                )
                ranks, utilization = link_utilization_series(solution, covered)
                panel[f"size_{size}"] = {
                    "normalized_rank": list(ranks),
                    "utilization": list(utilization),
                    "staircase": utilization_staircase(solution, covered),
                    "mean_utilization": mean_utilization(solution, covered),
                }
                lines.append(
                    f"{label}, {count} session(s), size {size}: mean utilization "
                    f"{panel[f'size_{size}']['mean_utilization']:.3f}"
                )
            data["panels"][f"{label}_sessions_{count}"] = panel
    return ExperimentResult(
        experiment_id="fig14",
        title="Limited Link Utilization",
        scale=scale,
        data=data,
        rendered="\n".join(lines),
        notes=_notes(scale),
    )


# ----------------------------------------------------------------------
# Fig 17 — asymmetric rate distribution vs session size
# ----------------------------------------------------------------------
def fig17(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 17: decay of the asymmetric rate distribution with session size."""
    setting = sweep_setting_for_scale(scale)
    runs = sweep_runs(scale, "maxflow")
    counts = sorted(setting.session_counts)
    selected_counts = [counts[0], counts[-1]]
    data: Dict = {"panels": {}}
    lines: List[str] = []
    for count in selected_counts:
        panel = {}
        for size in setting.session_sizes:
            solution = runs[(count, size)]
            first_session = solution.sessions[0]
            ranks, fractions = tree_rate_distribution(first_session)
            share = top_fraction_share(first_session, 0.1)
            panel[f"size_{size}"] = {
                "normalized_rank": list(ranks),
                "cumulative_fraction": list(fractions),
                "top_10pct_share": share,
                "num_trees": int(first_session.num_trees),
            }
            lines.append(
                f"{count} session(s), size {size}: top-10% trees carry {share:.2%} "
                f"of session 1's rate ({first_session.num_trees} trees)"
            )
        data["panels"][f"sessions_{count}"] = panel
    return ExperimentResult(
        experiment_id="fig17",
        title="Diminishing Effects of Asymmetric Rate Distribution",
        scale=scale,
        data=data,
        rendered="\n".join(lines),
        notes=_notes(scale),
    )


# ----------------------------------------------------------------------
# Fig 18 / 19 — online algorithm against the upper bounds
# ----------------------------------------------------------------------
def _online_ratio_figure(
    experiment_id: str,
    title: str,
    scale: str,
    reference_algorithm: str,
    ratio: Callable[[FlowSolution, FlowSolution], float],
    surface_title: str,
    value_label: str,
) -> ExperimentResult:
    """One ``ratio(online, reference)`` surface per online tree limit."""
    setting = sweep_setting_for_scale(scale)
    reference = sweep_runs(scale, reference_algorithm)
    data: Dict = {"tree_limits": list(setting.online_tree_limits), "surfaces": {}}
    rendered_parts: List[str] = []
    for limit in setting.online_tree_limits:
        online = online_sweep_runs(scale, limit)
        values = {point: ratio(sol, reference[point]) for point, sol in online.items()}
        surface = _surface_result(
            experiment_id, f"{surface_title} ({limit} trees)", scale, values, value_label
        )
        data["surfaces"][f"trees_{limit}"] = surface.data
        rendered_parts.append(surface.rendered)
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        scale=scale,
        data=data,
        rendered="\n\n".join(rendered_parts),
        notes=_notes(scale),
    )


def fig18(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 18: online / MaxFlow overall throughput ratio."""
    return _online_ratio_figure(
        "fig18",
        "Overall Throughput Ratio (Online vs. MaxFlow)",
        scale,
        "maxflow",
        throughput_ratio,
        "Online vs MaxFlow throughput ratio",
        "throughput ratio",
    )


def fig19(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 19: online / MaxConcurrentFlow minimum-rate ratio."""
    return _online_ratio_figure(
        "fig19",
        "Minimum Rate Ratio (Online vs. MaxConcurrentFlow)",
        scale,
        "maxconcurrent",
        min_rate_ratio,
        "Online vs MaxConcurrentFlow min-rate ratio",
        "min-rate ratio",
    )


if __name__ == "__main__":  # pragma: no cover
    run_section_cli(
        "Section VI experiments (Figs 12-19, two-level sweep)",
        (fig12, fig13, fig14, fig15, fig16, fig17, fig18, fig19),
    )
