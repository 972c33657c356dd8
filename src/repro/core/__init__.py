"""Core algorithms: the paper's primary contribution.

Each algorithm is one function ``fn(sessions, routing, **params) ->
FlowSolution``; its keyword parameters are the ``solver_params`` the
registry (:mod:`repro.api.registry`) accepts under its name.

* :func:`max_flow` — FPTAS for the overlay maximum flow problem M1
  (paper Table I),
* :func:`max_concurrent_flow` — FPTAS for the overlay maximum concurrent
  flow problem M2 (paper Table III), achieving weighted max-min fairness;
  the two FPTAS functions share :mod:`repro.core.fptas`'s epsilon rule
  and finish,
* :func:`randomized_rounding` — randomized rounding of the fractional
  M2 solution to a bounded number of trees per session (paper Table V;
  :class:`RandomMinCongestion` runs repeated trials),
* :func:`online_min_congestion` — the online, single-tree-per-arrival
  algorithm with the ``O(log |E|)`` congestion bound (paper Table VI),
* :class:`LengthFunction` — the shared, numerically robust exponential
  length function,
* :class:`FlowSolution` — the common result container.
"""

from repro.core.lengths import (
    LengthFunction,
    epsilon_for_ratio,
    maxflow_delta_log,
    concurrent_delta_log,
)
from repro.core.result import (
    TreeFlow,
    SessionFlowAccumulator,
    SessionResult,
    FlowSolution,
)
from repro.core.maxflow import max_flow
from repro.core.maxconcurrent import max_concurrent_flow
from repro.core.online import online_min_congestion
from repro.core.rounding import RandomMinCongestion, RoundedSelection, randomized_rounding

__all__ = [
    "LengthFunction",
    "epsilon_for_ratio",
    "maxflow_delta_log",
    "concurrent_delta_log",
    "TreeFlow",
    "SessionFlowAccumulator",
    "SessionResult",
    "FlowSolution",
    "max_flow",
    "max_concurrent_flow",
    "randomized_rounding",
    "online_min_congestion",
    "RandomMinCongestion",
    "RoundedSelection",
]
