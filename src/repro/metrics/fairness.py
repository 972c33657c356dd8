"""Fairness and cross-algorithm comparison metrics.

The throughput ratio between MaxConcurrentFlow and MaxFlow (Fig 16), the
online algorithm's ratios against both upper bounds (Figs 18, 19), and
the throughput gain of arbitrary over IP routing (Tables VII, VIII).
Each ratio raises :class:`ConfigurationError` on a zero reference, which
only a broken solve produces.  Jain's index serves the examples.
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


def throughput_improvement(solution: FlowSolution, reference: FlowSolution) -> float:
    """Relative overall-throughput gain of ``solution`` over ``reference``.

    Tables VII and VIII report it for arbitrary routing (the solution)
    against fixed IP routing (the reference), per approximation ratio.
    """
    ref = reference.overall_throughput
    if ref <= 0:
        raise ConfigurationError("reference solution has zero throughput")
    return (solution.overall_throughput - ref) / ref


def min_rate_ratio(solution: FlowSolution, reference: FlowSolution) -> float:
    """Minimum-session-rate ratio of ``solution`` against ``reference`` (Fig 19)."""
    ref = reference.min_rate
    if ref <= 0:
        raise ConfigurationError("reference solution has zero minimum rate")
    return solution.min_rate / ref
