"""Tree-rate distribution metrics.

The paper repeatedly observes an *asymmetric rate distribution*: most of a
session's throughput is concentrated in a small fraction of its overlay
trees (Figs 2/3 and 7/8, and its decay with session size in Fig 17).
These helpers extract that curve and its headline statistic from a
:class:`~repro.core.result.SessionResult`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.result import SessionResult
from repro.util.cdf import cumulative_distribution, fraction_of_mass_in_top


def tree_rate_distribution(session_result: SessionResult) -> Tuple[np.ndarray, np.ndarray]:
    """``(normalized_tree_rank, accumulative_rate_fraction)`` for one session.

    Exactly the series plotted in the paper's Figs 2, 3, 7, 8 and 17.
    """
    return cumulative_distribution(session_result.tree_rates())


def top_fraction_share(session_result: SessionResult, top_fraction: float = 0.1) -> float:
    """Fraction of a session's rate carried by its top ``top_fraction`` trees.

    The top share counts ``ceil(top_fraction * num_trees)`` trees, at
    least one.  Figs 2, 3, 7, 8 and 17 print it for ``top_fraction =
    0.1``; the paper's headline observation is that it exceeds 0.9 on
    small sessions.
    """
    return fraction_of_mass_in_top(session_result.tree_rates(), top_fraction)
