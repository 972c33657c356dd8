"""Section III experiments: Tables II & IV and Figures 2–4 (fixed IP routing).

The setting is the flat Waxman topology with two competing sessions; the
MaxFlow and MaxConcurrentFlow FPTAS are run over a sweep of approximation
ratios and the paper's table rows / figure series are extracted.
"""

from __future__ import annotations

from typing import Dict, List

from repro.api.service import build_instance
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import flat_ratio_sweep, flat_scenario_spec
from repro.experiments.settings import flat_setting_for_scale, run_section_cli
from repro.metrics.distribution import top_fraction_share, tree_rate_distribution
from repro.metrics.summary import solution_table_row, solutions_to_table
from repro.metrics.utilization import (
    covered_edges_for_sessions,
    link_utilization_series,
    mean_utilization,
    utilization_staircase,
)


def _ratio_table_data(scale: str, routing_kind: str, algorithm: str) -> Dict:
    solutions = flat_ratio_sweep(scale, routing_kind, algorithm)
    ratios = sorted(solutions)
    data: Dict[str, Dict] = {
        "ratios": ratios,
        "columns": {f"{r:g}": solution_table_row(solutions[r]) for r in ratios},
    }
    # Declarative provenance: each column's cell as a Scenario-API spec,
    # so any table entry can be re-solved (or submitted remotely) with
    # ``repro.api.solve``.  Every cell shares one instance.
    specs = {
        f"{ratio:g}": flat_scenario_spec(scale, routing_kind, algorithm, ratio)
        for ratio in data["ratios"]
    }
    network, sessions, _ = build_instance(next(iter(specs.values())))
    data["session_sizes"] = [s.size for s in sessions]
    data["demand"] = flat_setting_for_scale(scale).demand
    data["num_nodes"] = network.num_nodes
    data["num_edges"] = network.num_edges
    data["scenario_specs"] = {label: spec.to_jsonable() for label, spec in specs.items()}
    return data


def _notes(scale: str) -> str:
    setting = flat_setting_for_scale(scale)
    if scale == "paper":
        return (
            "Paper scale: 100-node Waxman, capacity 100, sessions of "
            f"{setting.session_sizes} members, demand {setting.demand}; ratio grid "
            f"{setting.ratios} (0.98/0.99 omitted: multi-hour pure-Python runs)."
        )
    return (
        f"Quick scale: {setting.num_nodes}-node Waxman, sessions of "
        f"{setting.session_sizes} members, ratios {setting.ratios}."
    )


# ----------------------------------------------------------------------
# Table II — MaxFlow vs approximation ratio
# ----------------------------------------------------------------------
def table2(scale: str = "quick", routing_kind: str = "ip") -> ExperimentResult:
    """Paper Table II: MaxFlow rates/throughput/trees/MST-ops per ratio."""
    solutions = flat_ratio_sweep(scale, routing_kind, "maxflow")
    data = _ratio_table_data(scale, routing_kind, "maxflow")
    rendered = solutions_to_table(
        solutions, title="Table II — MaxFlow (fixed IP routing)"
    )
    return ExperimentResult(
        experiment_id="table2",
        title="Experiment result of MaxFlow",
        scale=scale,
        data=data,
        rendered=rendered,
        notes=_notes(scale),
    )


# ----------------------------------------------------------------------
# Table IV — MaxConcurrentFlow vs approximation ratio
# ----------------------------------------------------------------------
def table4(scale: str = "quick", routing_kind: str = "ip") -> ExperimentResult:
    """Paper Table IV: MaxConcurrentFlow rates/throughput/trees/MST-ops per ratio."""
    solutions = flat_ratio_sweep(scale, routing_kind, "maxconcurrent")
    data = _ratio_table_data(scale, routing_kind, "maxconcurrent")
    rendered = solutions_to_table(
        solutions, title="Table IV — MaxConcurrentFlow (fixed IP routing)"
    )
    return ExperimentResult(
        experiment_id="table4",
        title="Experiment results of MaxConcurrentFlow",
        scale=scale,
        data=data,
        rendered=rendered,
        notes=_notes(scale),
    )


# ----------------------------------------------------------------------
# Figures 2 & 3 — accumulative tree-rate distributions
# ----------------------------------------------------------------------
def _tree_rate_figure(
    experiment_id: str, title: str, scale: str, routing_kind: str, algorithm: str
) -> ExperimentResult:
    solutions = flat_ratio_sweep(scale, routing_kind, algorithm)
    data: Dict[str, Dict] = {"sessions": {}}
    lines: List[str] = []
    num_sessions = len(next(iter(solutions.values())).sessions)
    for session_index in range(num_sessions):
        per_ratio = {}
        for ratio, solution in sorted(solutions.items()):
            session_result = solution.sessions[session_index]
            ranks, fractions = tree_rate_distribution(session_result)
            per_ratio[f"{ratio:g}"] = {
                "normalized_rank": list(ranks),
                "cumulative_fraction": list(fractions),
            }
            # Report the paper's headline statistic: share of rate in the
            # top 10% of trees.
            if fractions.size:
                top10 = top_fraction_share(session_result, 0.1)
                lines.append(
                    f"session {session_index + 1} ratio {ratio:g}: "
                    f"top-10% trees carry {top10:.2%} of the rate "
                    f"({fractions.size} trees)"
                )
        data["sessions"][f"session_{session_index + 1}"] = per_ratio
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        scale=scale,
        data=data,
        rendered="\n".join(lines),
        notes=_notes(scale),
    )


def fig2(scale: str = "quick", routing_kind: str = "ip") -> ExperimentResult:
    """Paper Fig. 2: overlay tree rate distribution under MaxFlow."""
    return _tree_rate_figure(
        "fig2", "Overlay Tree Rate Distribution (MaxFlow)", scale, routing_kind, "maxflow"
    )


def fig3(scale: str = "quick", routing_kind: str = "ip") -> ExperimentResult:
    """Paper Fig. 3: overlay tree rate distribution under MaxConcurrentFlow."""
    return _tree_rate_figure(
        "fig3",
        "Overlay Tree Rate Distribution (MaxConcurrentFlow)",
        scale,
        routing_kind,
        "maxconcurrent",
    )


# ----------------------------------------------------------------------
# Figure 4 — link utilization
# ----------------------------------------------------------------------
def fig4(scale: str = "quick", routing_kind: str = "ip") -> ExperimentResult:
    """Paper Fig. 4: link-utilization distribution for MaxFlow and MaxConcurrentFlow.

    Under fixed routing the series covers the links on the sessions'
    unicast paths, as in the paper.  Under dynamic routing (Fig. 9) the
    trees leave those paths, so each series covers the links the
    solution's trees use, and the count is reported per ratio.
    """
    setting = flat_setting_for_scale(scale)
    network, sessions, routing = build_instance(
        flat_scenario_spec(scale, routing_kind, "maxflow", setting.ratios[0])
    )
    if routing.is_dynamic:
        covered = None
        data: Dict[str, Dict] = {"algorithms": {}}
        lines: List[str] = []
    else:
        covered = covered_edges_for_sessions(network, sessions)
        data = {"covered_links": int(covered.size), "algorithms": {}}
        lines = [f"physical links covered by the sessions' unicast paths: {covered.size}"]
    for algorithm, label in (("maxflow", "MaxFlow"), ("maxconcurrent", "MaxConcurrentFlow")):
        solutions = flat_ratio_sweep(scale, routing_kind, algorithm)
        per_ratio = {}
        for ratio, solution in sorted(solutions.items()):
            ranks, utilization = link_utilization_series(solution, covered)
            staircase = utilization_staircase(solution, covered)
            per_ratio[f"{ratio:g}"] = {
                "normalized_rank": list(ranks),
                "utilization": list(utilization),
                "staircase": staircase,
            }
            links = ""
            if covered is None:
                per_ratio[f"{ratio:g}"]["links"] = int(utilization.size)
                links = f"{utilization.size} links used by its trees, "
            lines.append(
                f"{label} ratio {ratio:g}: {links}mean utilization "
                f"{mean_utilization(solution, covered):.3f}, "
                f"{len(staircase)} distinct congestion levels"
            )
        data["algorithms"][label] = per_ratio
    return ExperimentResult(
        experiment_id="fig4",
        title="Link Utilization",
        scale=scale,
        data=data,
        rendered="\n".join(lines),
        notes=_notes(scale),
    )


if __name__ == "__main__":  # pragma: no cover
    run_section_cli(
        "Section III experiments (Tables II/IV, Figs 2-4)",
        (table2, table4, fig2, fig3, fig4),
    )
