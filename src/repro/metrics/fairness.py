"""Fairness and cross-algorithm comparison metrics.

Used by the Section VI experiments: the minimum-rate surface of
MaxConcurrentFlow (Fig 15), the throughput ratio between
MaxConcurrentFlow and MaxFlow (Fig 16), and the online algorithm's
approximation ratios against both upper bounds (Figs 18, 19).
"""

from __future__ import annotations

import numpy as np

from repro.core.result import FlowSolution
from repro.util.errors import ConfigurationError


def jains_index(rates: np.ndarray) -> float:
    """Jain's fairness index of a rate vector (1 = perfectly equal)."""
    r = np.asarray(rates, dtype=float)
    if r.size == 0:
        return 1.0
    if np.any(r < 0):
        raise ConfigurationError("rates must be non-negative")
    denom = r.size * float(np.sum(r**2))
    if denom == 0:
        return 1.0
    return float(np.sum(r)) ** 2 / denom


def throughput_ratio(solution: FlowSolution, reference: FlowSolution) -> float:
    """Overall-throughput ratio of ``solution`` against ``reference``.

    Fig 16 uses MaxConcurrentFlow as the solution and MaxFlow as the
    reference; Fig 18 uses the online algorithm against MaxFlow.
    """
    ref = reference.overall_throughput
    if ref <= 0:
        raise ConfigurationError("reference solution has zero throughput")
    return solution.overall_throughput / ref


def min_rate_ratio(solution: FlowSolution, reference: FlowSolution) -> float:
    """Minimum-session-rate ratio of ``solution`` against ``reference`` (Fig 19)."""
    ref = reference.min_rate
    if ref <= 0:
        raise ConfigurationError("reference solution has zero minimum rate")
    return solution.min_rate / ref


def max_min_violation(solution: FlowSolution) -> float:
    """How far the solution is from equalising weighted rates.

    Returns ``(max_i rate_i/dem_i - min_i rate_i/dem_i) / max_i rate_i/dem_i``;
    zero means all sessions achieve the same demand fraction, which is
    what MaxConcurrentFlow equalises when no session can get more without
    hurting another.
    """
    weighted = np.asarray(
        [s.rate / s.session.demand for s in solution.sessions], dtype=float
    )
    if weighted.size == 0 or weighted.max() <= 0:
        return 0.0
    return float((weighted.max() - weighted.min()) / weighted.max())
