"""Section IV experiments: Figures 5 & 6 (limited number of trees).

Random-MinCongestion (rounding the MaxConcurrentFlow solution) and
Online-MinCongestion are evaluated while the number of trees each session
may use grows from 1 to the configured limit; the paper plots the overall
throughput, the rate of the smaller session, and how many distinct trees
the algorithms actually end up using.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.report import ExperimentResult
from repro.experiments.runner import fractional_scenario_spec, limited_tree_study
from repro.experiments.settings import limited_tree_setting_for_scale, run_section_cli
from repro.util.tables import format_table


def _notes(scale: str) -> str:
    setting = limited_tree_setting_for_scale(scale)
    return (
        f"tree limits {setting.tree_limits}, sigmas {setting.sigmas}, "
        f"{setting.rounding_trials} rounding trials, "
        f"{setting.online_orderings} online arrival orderings, fractional solution at "
        f"ratio {setting.fractional_ratio}"
    )


def _throughput_figure(
    experiment_id: str, title: str, label: str, scale: str, routing_kind: str
) -> ExperimentResult:
    """Throughput of Random and Online versus the tree limit, headed ``label``."""
    study = limited_tree_study(scale, routing_kind)
    setting = study.setting
    limits = [p.tree_limit for p in study.points]

    data: Dict = {
        "tree_limits": limits,
        # The fractional yardstick as a Scenario-API spec (re-solvable via
        # ``repro.api.solve``).
        "fractional_scenario": fractional_scenario_spec(scale, routing_kind).to_jsonable(),
        "fractional_throughput": study.fractional.overall_throughput,
        "fractional_min_rate": study.fractional.min_rate,
        "random": {
            "throughput": study.series("random_throughput"),
            "min_rate": study.series("random_min_rate"),
            "session_rates": [p.random_session_rates for p in study.points],
        },
        "online": {},
    }
    headers = ["max trees", "Random"] + [f"Online(sigma={s:g})" for s in setting.sigmas]
    rows: List[List[object]] = []
    for index, point in enumerate(study.points):
        row: List[object] = [point.tree_limit, point.random_throughput]
        for sigma in setting.sigmas:
            row.append(point.online_throughput[sigma])
        rows.append(row)
    for sigma in setting.sigmas:
        data["online"][f"{sigma:g}"] = {
            "throughput": study.series("online_throughput", sigma),
            "min_rate": study.series("online_min_rate", sigma),
            "session_rates": [p.online_session_rates[sigma] for p in study.points],
        }
    rendered = format_table(
        headers,
        rows,
        title=(
            f"{label} (fractional optimum {study.fractional.overall_throughput:.1f})"
        ),
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        scale=scale,
        data=data,
        rendered=rendered,
        notes=_notes(scale),
    )


def fig5(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 5: throughput of Random and Online versus the tree limit."""
    return _throughput_figure(
        "fig5",
        "Throughput (Random and Online)",
        "Fig 5(a) — overall throughput vs tree limit",
        scale,
        "ip",
    )


def _trees_figure(
    experiment_id: str, title: str, label: str, scale: str, routing_kind: str
) -> ExperimentResult:
    """Distinct trees the algorithms actually use per tree limit, headed ``label``."""
    study = limited_tree_study(scale, routing_kind)
    setting = study.setting
    num_sessions = len(study.fractional.sessions)

    data: Dict = {"tree_limits": [p.tree_limit for p in study.points], "sessions": {}}
    rows: List[List[object]] = []
    headers = ["max trees"] + [
        f"s{i + 1} random" for i in range(num_sessions)
    ] + [f"s{i + 1} online(sigma={setting.sigmas[0]:g})" for i in range(num_sessions)]
    for point in study.points:
        row: List[object] = [point.tree_limit]
        row.extend(point.random_trees_used)
        row.extend(point.online_trees_used[setting.sigmas[0]])
        rows.append(row)
    for i in range(num_sessions):
        data["sessions"][f"session_{i + 1}"] = {
            "random": [p.random_trees_used[i] for p in study.points],
            "online": {
                f"{sigma:g}": [p.online_trees_used[sigma][i] for p in study.points]
                for sigma in setting.sigmas
            },
        }
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        scale=scale,
        data=data,
        rendered=format_table(headers, rows, title=label),
        notes=_notes(scale),
    )


def fig6(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 6: number of distinct trees the algorithms actually use."""
    return _trees_figure(
        "fig6",
        "Number of Trees (Random and Online)",
        "Fig 6 — distinct trees used vs tree limit",
        scale,
        "ip",
    )


if __name__ == "__main__":  # pragma: no cover
    run_section_cli("Section IV experiments (Figs 5-6, limited-tree study)", (fig5, fig6))
