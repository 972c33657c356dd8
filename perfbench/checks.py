"""Correctness oracle and deterministic counts for one solved report.

Bit-identity is not the test: the engine may change its arithmetic order.
Instead every report is held to the guarantee its solver gives:

* ``max_flow`` / ``max_concurrent_flow`` solutions are feasible, and under
  fixed routing their objective lies in ``[ratio * LP, LP]`` where ``LP``
  is the exact optimum from :mod:`repro.lp.exact` recorded in
  ``reference.json``.  Under dynamic routing the fixed-route optimum is a
  lower bound on the true one, so the objective must be at least
  ``ratio * LP``.
* ``online`` admits every arrival at its demand, with max congestion
  within ``CONGESTION_TOLERANCE`` of the recorded value.
* ``randomized_rounding`` keeps its throughput within ``[ratio, 1/ratio]``
  of the recorded value.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

#: Online max congestion may drift by this relative amount from the
#: recorded reference before a report counts as wrong.
CONGESTION_TOLERANCE = 0.25

#: Slack on "objective <= exact optimum" for floating-point round-off.
LP_SLACK = 1e-6

COUNT_KEYS = (
    "oracle_calls",
    "steps",
    "oracle_queries",
    "batched_rounds",
    "per_session_rounds",
    "length_updates",
    "ledger_columns",
)


def objective(solution) -> float:
    """The value the solver optimises, in the exact LP's normalisation."""
    algorithm = solution.algorithm
    if algorithm == "MaxConcurrentFlow":
        return float(solution.concurrent_throughput)
    if algorithm == "Online-MinCongestion":
        # Rates come back saturated (scaled by 1 / l_max); the congestion
        # of routing every arrival at its demand is the unscaled l_max.
        return float(solution.extra["effective_max_congestion"])
    if algorithm == "MaxFlow":
        max_size = max(s.session.size for s in solution.sessions)
        return float(solution.overall_throughput) / (max_size - 1)
    return float(solution.overall_throughput)


def counts(report) -> Dict[str, int]:
    """The report's deterministic work counts."""
    instrumentation = report.solution.instrumentation or {}
    out = {"oracle_calls": int(report.oracle_calls)}
    for key in COUNT_KEYS[1:]:
        out[key] = int(instrumentation.get(key, 0))
    return out


def check(entry: Dict[str, Any], report, key: Optional[str] = None) -> Tuple[bool, str]:
    """Whether ``report`` is a correct answer to reference ``entry``."""
    if report.canonical_key != entry["key"]:
        return False, f"key {report.canonical_key[:12]} != requested {entry['key'][:12]}"
    if key is not None and key != entry["key"]:
        return False, f"ticket key {key[:12]} != requested {entry['key'][:12]}"
    solution = report.solution
    spec = entry["spec"]
    solver = spec["solver"]
    ratio = float(spec["solver_params"].get("approximation_ratio", 1.0))
    value = objective(solution)
    if solver in ("max_flow", "max_concurrent_flow"):
        if not solution.is_feasible():
            return False, "infeasible flow"
        lp = entry.get("lp")
        if lp is None:
            low, high = ratio * entry["objective"], entry["objective"] / ratio
        elif spec["routing"] == "ip":
            low, high = ratio * lp, lp * (1.0 + LP_SLACK)
        else:
            low, high = ratio * lp, float("inf")
        if not low <= value <= high:
            return False, f"objective {value:.6g} outside [{low:.6g}, {high:.6g}]"
        return True, ""
    if solver == "online":
        arrivals = solution.extra.get("num_arrivals")
        if arrivals != entry["arrivals"]:
            return False, f"{arrivals} arrivals admitted, expected {entry['arrivals']}"
        demand = float(sum(s.session.demand for s in solution.sessions))
        routed = float(sum(s.rate for s in solution.sessions)) * value
        for total in (demand, routed):
            if abs(total - entry["demand_total"]) > 1e-6 * entry["demand_total"]:
                return False, f"routed {total:.6g} != demand {entry['demand_total']:.6g}"
        ref = entry["objective"]
        if abs(value - ref) > CONGESTION_TOLERANCE * ref:
            return False, f"congestion {value:.6g} vs reference {ref:.6g}"
        return True, ""
    ref = entry["objective"]
    if not ratio * ref <= value <= ref / ratio:
        return False, f"throughput {value:.6g} vs reference {ref:.6g}"
    return True, ""
