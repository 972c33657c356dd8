"""Link-utilization metrics.

The paper's Figs 4, 9 and 14 plot the distribution of per-link utilization
ratios (restricted to links covered by at least one overlay route) and
observe a "staircase" of distinct congestion levels whose height drops as
session concurrency rises; Fig 13 tracks how many physical edges each
overlay node can draw on.  These helpers compute those quantities.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import FlowSolution
from repro.overlay.session import Session
from repro.routing.ip_routing import FixedIPRouting
from repro.topology.network import PhysicalNetwork
from repro.util.cdf import normalized_rank_cdf


def covered_edges_for_sessions(
    network: PhysicalNetwork,
    sessions: Sequence[Session],
    routing: Optional[FixedIPRouting] = None,
) -> np.ndarray:
    """Physical edges on at least one overlay (member-pair) route of any session."""
    routing = routing or FixedIPRouting(network)
    covered = np.zeros(network.num_edges, dtype=bool)
    for session in sessions:
        covered[routing.covered_edges(session.members)] = True
    return np.flatnonzero(covered)


def link_utilization_series(
    solution: FlowSolution,
    covered_edges: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(normalized_edge_rank, utilization_ratio)`` sorted descending (Figs 4, 9, 14).

    When ``covered_edges`` is given, only those edges enter the series
    (the paper restricts the plot to the 52 links covered by the two
    sessions' unicast paths); otherwise edges touched by any flow-carrying
    tree are used.
    """
    flows = solution.edge_flows()
    utilization = flows / solution.network.capacities
    if covered_edges is not None:
        utilization = utilization[np.asarray(covered_edges, dtype=np.int64)]
    else:
        mask = np.zeros(solution.network.num_edges, dtype=bool)
        for s in solution.sessions:
            for tf in s.tree_flows:
                mask[tf.tree.physical_edges] = True
        utilization = utilization[mask]
    return normalized_rank_cdf(utilization)


def mean_utilization(
    solution: FlowSolution, covered_edges: Optional[np.ndarray] = None
) -> float:
    """Average utilization ratio over the covered edges.

    The mean that Figs 4, 9 and 14 print beside each series; 0.0 when no
    edge is covered.
    """
    _, series = link_utilization_series(solution, covered_edges)
    return float(series.mean()) if series.size else 0.0


def utilization_staircase(
    solution: FlowSolution,
    covered_edges: Optional[np.ndarray] = None,
    resolution: float = 0.05,
) -> List[Tuple[float, int]]:
    """Group edges into distinct congestion levels (the "staircase").

    Utilization values are quantised to ``resolution`` and returned as
    ``(level, edge_count)`` pairs sorted by decreasing level — a compact
    numerical summary of the staircase phenomenon in Figs 4 and 14.
    """
    _, series = link_utilization_series(solution, covered_edges)
    if series.size == 0:
        return []
    quantised = np.round(series / resolution) * resolution
    levels, counts = np.unique(quantised, return_counts=True)
    pairs = sorted(zip(levels.tolist(), counts.tolist()), reverse=True)
    return [(float(level), int(count)) for level, count in pairs]


def covered_edge_count(
    network: PhysicalNetwork,
    sessions: Sequence[Session],
    routing: Optional[FixedIPRouting] = None,
) -> int:
    """Number of physical links covered by the sessions' overlay routes."""
    return int(covered_edges_for_sessions(network, sessions, routing).size)


def edges_per_node(
    network: PhysicalNetwork,
    sessions: Sequence[Session],
    routing: Optional[FixedIPRouting] = None,
) -> float:
    """Average number of covered physical edges per distinct overlay node.

    This is the statistic of the paper's Fig 13: as sessions grow or
    multiply, the marginal number of fresh physical edges a node brings
    shrinks, explaining the throughput competition of Fig 12.
    """
    nodes = set()
    for session in sessions:
        nodes.update(session.members)
    if not nodes:
        return 0.0
    covered = covered_edge_count(network, sessions, routing)
    return covered / len(nodes)
