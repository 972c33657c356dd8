"""Core algorithms: the paper's primary contribution.

* :class:`MaxFlow` — FPTAS for the overlay maximum flow problem M1
  (paper Table I),
* :class:`MaxConcurrentFlow` — FPTAS for the overlay maximum concurrent
  flow problem M2 (paper Table III), achieving weighted max-min fairness,
* :class:`RandomMinCongestion` — randomized rounding to a bounded number
  of trees per session (paper Table V),
* :class:`OnlineMinCongestion` — the online, single-tree-per-arrival
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
from repro.core.maxflow import MaxFlow, MaxFlowConfig
from repro.core.maxconcurrent import MaxConcurrentFlow, MaxConcurrentFlowConfig
from repro.core.online import OnlineMinCongestion, OnlineConfig, OnlineState
from repro.core.rounding import RandomMinCongestion, RoundedSelection

__all__ = [
    "LengthFunction",
    "epsilon_for_ratio",
    "maxflow_delta_log",
    "concurrent_delta_log",
    "TreeFlow",
    "SessionFlowAccumulator",
    "SessionResult",
    "FlowSolution",
    "MaxFlow",
    "MaxFlowConfig",
    "MaxConcurrentFlow",
    "MaxConcurrentFlowConfig",
    "OnlineMinCongestion",
    "OnlineConfig",
    "OnlineState",
    "RandomMinCongestion",
    "RoundedSelection",
]
