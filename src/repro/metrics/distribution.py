"""Tree-rate distribution metrics.

The paper repeatedly observes an *asymmetric rate distribution*: most of a
session's throughput is concentrated in a small fraction of its overlay
trees (Figs 2/3, and its decay with session size in Fig 17).  These
helpers extract those curves and summary statistics from a
:class:`~repro.core.result.FlowSolution`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.result import FlowSolution, SessionResult
from repro.util.cdf import cumulative_distribution, fraction_of_mass_in_top


def tree_rate_distribution(session_result: SessionResult) -> Tuple[np.ndarray, np.ndarray]:
    """``(normalized_tree_rank, accumulative_rate_fraction)`` for one session.

    Exactly the series plotted in the paper's Figs 2, 3, 7, 8 and 17.
    """
    return cumulative_distribution(session_result.tree_rates())


def session_rate_distributions(
    solution: FlowSolution,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Tree-rate distribution curves for every session of a solution."""
    return [tree_rate_distribution(s) for s in solution.sessions]


def top_fraction_share(session_result: SessionResult, top_fraction: float = 0.1) -> float:
    """Fraction of a session's rate carried by its top ``top_fraction`` trees.

    The paper's headline observation is that this exceeds 0.9 for
    ``top_fraction = 0.1`` on small sessions.
    """
    return fraction_of_mass_in_top(session_result.tree_rates(), top_fraction)


def asymmetry_index(session_result: SessionResult) -> float:
    """Gini-style index of how unevenly rate is spread across trees.

    0 means all trees carry the same rate; values near 1 mean a single
    tree dominates.  Used to quantify the decay of the asymmetric rate
    distribution as sessions grow (Fig 17).
    """
    rates = np.sort(session_result.tree_rates())
    if rates.size == 0:
        return 0.0
    total = rates.sum()
    if total <= 0:
        return 0.0
    n = rates.size
    if n == 1:
        return 1.0
    # Gini coefficient over tree rates.
    cumulative = np.cumsum(rates)
    gini = 1.0 + 1.0 / n - 2.0 * float(np.sum(cumulative)) / (n * total)
    return float(np.clip(gini, 0.0, 1.0))
