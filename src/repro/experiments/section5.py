"""Section V experiments: Tables VII & VIII and Figures 7–11 (arbitrary routing).

Every Section III/IV experiment is re-run with the dynamic-routing overlay
model (overlay edges follow shortest paths under the *current* length
function instead of fixed IP routes) and compared with the fixed-IP
results, quantifying the impact of IP routing — the paper's finding is
that the improvement is below 1%.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.report import ExperimentResult
from repro.experiments.runner import flat_ratio_sweep
from repro.experiments.section3 import _ratio_table, fig2, fig3, fig4
from repro.experiments.section4 import _throughput_figure, _trees_figure
from repro.experiments.settings import run_section_cli
from repro.metrics.fairness import throughput_improvement


def _with_ip_comparison(result: ExperimentResult, scale: str, algorithm: str) -> ExperimentResult:
    """Attach the arbitrary-vs-IP throughput improvement to a table result."""
    dynamic = flat_ratio_sweep(scale, "dynamic", algorithm)
    fixed = flat_ratio_sweep(scale, "ip", algorithm)
    improvements: Dict[str, float] = {
        f"{ratio:g}": throughput_improvement(dynamic[ratio], fixed[ratio])
        for ratio in sorted(dynamic)
    }
    result.data["throughput_improvement_vs_ip"] = improvements
    mean_improvement = sum(improvements.values()) / len(improvements)
    result.rendered += (
        f"\nmean throughput improvement of arbitrary routing over IP routing: "
        f"{mean_improvement:+.3%}"
    )
    return result


def table7(scale: str = "quick") -> ExperimentResult:
    """Paper Table VII: MaxFlow with arbitrary (dynamic) routing."""
    result = _ratio_table(
        "table7",
        "Experiment result of MaxFlow with arbitrary routing",
        "Table VII — MaxFlow (arbitrary routing)",
        scale,
        "dynamic",
        "maxflow",
    )
    return _with_ip_comparison(result, scale, "maxflow")


def table8(scale: str = "quick") -> ExperimentResult:
    """Paper Table VIII: MaxConcurrentFlow with arbitrary (dynamic) routing."""
    result = _ratio_table(
        "table8",
        "Experiment results of MaxConcurrentFlow with arbitrary routing",
        "Table VIII — MaxConcurrentFlow (arbitrary routing)",
        scale,
        "dynamic",
        "maxconcurrent",
    )
    return _with_ip_comparison(result, scale, "maxconcurrent")


def fig7(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 7: tree rate distribution, MaxFlow with arbitrary routing."""
    result = fig2(scale=scale, routing_kind="dynamic")
    result.experiment_id = "fig7"
    result.title = "Overlay Tree Rate Distribution (MaxFlow with Arbitrary Routing)"
    return result


def fig8(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 8: tree rate distribution, MaxConcurrentFlow with arbitrary routing."""
    result = fig3(scale=scale, routing_kind="dynamic")
    result.experiment_id = "fig8"
    result.title = (
        "Overlay Tree Rate Distribution (MaxConcurrentFlow with Arbitrary Routing)"
    )
    return result


def fig9(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 9: link utilization under arbitrary routing."""
    result = fig4(scale=scale, routing_kind="dynamic")
    result.experiment_id = "fig9"
    result.title = "Link Utilization (Arbitrary Routing)"
    return result


def fig10(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 10: Random/Online throughput vs tree limit, arbitrary routing."""
    return _throughput_figure(
        "fig10",
        "Throughput (Random and Online with Arbitrary Routing)",
        "Fig 10(a) — overall throughput vs tree limit, arbitrary routing",
        scale,
        "dynamic",
    )


def fig11(scale: str = "quick") -> ExperimentResult:
    """Paper Fig. 11: number of trees used, arbitrary routing."""
    return _trees_figure(
        "fig11",
        "Number of Trees (Random and Online with Arbitrary Routing)",
        "Fig 11 — distinct trees used vs tree limit, arbitrary routing",
        scale,
        "dynamic",
    )


if __name__ == "__main__":  # pragma: no cover
    run_section_cli(
        "Section V experiments (Tables VII/VIII, Figs 7-11, arbitrary routing)",
        (table7, table8, fig7, fig8, fig9, fig10, fig11),
    )
