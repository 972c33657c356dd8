"""Exact LP solutions of M1 and M2 by explicit tree enumeration.

These solvers enumerate **all** overlay spanning trees of every session
(Prüfer correspondence), build the tree-versus-edge usage matrix
``n_e(t)``, and hand the resulting LP to ``scipy.optimize.linprog``
(HiGHS).  They are exponential in the session size and exist purely as
ground truth for the FPTAS, the rounding algorithms, and the property
tests — exactly the role the ellipsoid-based formulation plays in the
paper's theory sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.overlay.session import Session
from repro.overlay.tree_packing import enumerate_spanning_trees
from repro.routing.base import RoutingModel
from repro.util.errors import ConfigurationError, InfeasibleProblemError

PairKey = Tuple[int, int]


@dataclass(frozen=True)
class ExactSolution:
    """Exact optimum of a small M1/M2 instance.

    Attributes
    ----------
    objective:
        Optimal objective value — the M1 normalised throughput for
        :func:`exact_max_flow`, or the concurrent throughput ``lambda``
        for :func:`exact_max_concurrent_flow`.
    session_rates:
        Total flow per session at the optimum.
    tree_flows:
        Per-session mapping from tree (as a tuple of overlay edges) to its
        flow at the optimum.
    """

    objective: float
    session_rates: Tuple[float, ...]
    tree_flows: Tuple[Dict[Tuple[PairKey, ...], float], ...]

    @property
    def overall_throughput(self) -> float:
        """Aggregate receiver rate given the stored session rates."""
        return float(sum(self._receivers[i] * r for i, r in enumerate(self.session_rates)))

    # receivers are attached post-construction by the solvers
    _receivers: Tuple[int, ...] = ()


def enumerate_session_trees(
    session: Session,
    routing: RoutingModel,
    max_members: int = 6,
) -> Tuple[List[Tuple[PairKey, ...]], np.ndarray]:
    """All overlay trees of a session and their ``n_e(t)`` usage matrix.

    Returns ``(trees, usage)`` where ``usage[t]`` is the per-physical-edge
    traversal-count vector of tree ``t`` under the routing model's
    hop-metric routes (fixed IP routes).  Limited to ``max_members``
    members to keep the enumeration tractable.
    """
    if session.size > max_members:
        raise ConfigurationError(
            f"exact enumeration limited to {max_members} members, "
            f"session has {session.size}"
        )
    network = routing.network
    members = list(session.members)
    trees = enumerate_spanning_trees(members)
    pairs = [
        (min(members[i], members[j]), max(members[i], members[j]))
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ]
    paths = routing.paths_for_pairs(pairs)
    pair_usage = {
        pk: np.bincount(paths[pk].edge_ids, minlength=network.num_edges).astype(float)
        for pk in pairs
    }
    usage = np.zeros((len(trees), network.num_edges), dtype=float)
    for t_index, tree in enumerate(trees):
        for edge in tree:
            usage[t_index] += pair_usage[edge]
    return trees, usage


def _enumerate_all(
    sessions: Sequence[Session], routing: RoutingModel, max_members: int
) -> Tuple[List[List[Tuple[PairKey, ...]]], List[np.ndarray]]:
    all_trees: List[List[Tuple[PairKey, ...]]] = []
    all_usage: List[np.ndarray] = []
    for session in sessions:
        trees, usage = enumerate_session_trees(session, routing, max_members)
        all_trees.append(trees)
        all_usage.append(usage)
    return all_trees, all_usage


def exact_max_flow(
    sessions: Sequence[Session],
    routing: RoutingModel,
    max_members: int = 6,
) -> ExactSolution:
    """Exact optimum of problem M1 (maximum overlay flow).

    Objective (paper eq. 3): maximise
    ``sum_i sum_j (|S_i| - 1) / (|Smax| - 1) * f_j^i`` subject to the
    per-edge capacity constraints ``sum n_e(t) f <= c_e``.
    """
    if not sessions:
        raise ConfigurationError("at least one session is required")
    network = routing.network
    all_trees, all_usage = _enumerate_all(sessions, routing, max_members)
    max_size = max(s.size for s in sessions)

    num_vars = sum(len(trees) for trees in all_trees)
    c = np.zeros(num_vars)
    offset = 0
    offsets = []
    for session, trees in zip(sessions, all_trees):
        offsets.append(offset)
        weight = (session.size - 1) / (max_size - 1)
        c[offset : offset + len(trees)] = -weight
        offset += len(trees)

    a_ub = np.concatenate(all_usage, axis=0).T  # (num_edges, num_vars) after transpose
    # all_usage[i] has shape (num_trees_i, num_edges); concatenating along
    # axis 0 stacks trees, transposing gives edges x variables.
    b_ub = network.capacities.copy()

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:
        raise InfeasibleProblemError(f"exact M1 LP failed: {result.message}")

    rates = []
    tree_flows = []
    for index, (session, trees) in enumerate(zip(sessions, all_trees)):
        start = offsets[index]
        x = result.x[start : start + len(trees)]
        rates.append(float(x.sum()))
        tree_flows.append({trees[t]: float(v) for t, v in enumerate(x) if v > 1e-9})
    solution = ExactSolution(
        objective=float(-result.fun),
        session_rates=tuple(rates),
        tree_flows=tuple(tree_flows),
    )
    object.__setattr__(solution, "_receivers", tuple(s.num_receivers for s in sessions))
    return solution


def exact_max_concurrent_flow(
    sessions: Sequence[Session],
    routing: RoutingModel,
    max_members: int = 6,
) -> ExactSolution:
    """Exact optimum of problem M2 (maximum concurrent overlay flow).

    Objective (paper eq. 4): maximise ``lambda`` subject to every session
    routing at least ``lambda * dem(i)`` units and the capacity
    constraints.
    """
    if not sessions:
        raise ConfigurationError("at least one session is required")
    network = routing.network
    all_trees, all_usage = _enumerate_all(sessions, routing, max_members)

    num_tree_vars = sum(len(trees) for trees in all_trees)
    num_vars = num_tree_vars + 1  # last variable is lambda
    c = np.zeros(num_vars)
    c[-1] = -1.0

    # Capacity constraints.
    a_cap = np.zeros((network.num_edges, num_vars))
    a_cap[:, :num_tree_vars] = np.concatenate(all_usage, axis=0).T
    b_cap = network.capacities.copy()

    # Demand constraints: lambda * dem(i) - sum_j f_j^i <= 0.
    a_dem = np.zeros((len(sessions), num_vars))
    offset = 0
    offsets = []
    for index, (session, trees) in enumerate(zip(sessions, all_trees)):
        offsets.append(offset)
        a_dem[index, offset : offset + len(trees)] = -1.0
        a_dem[index, -1] = session.demand
        offset += len(trees)

    a_ub = np.concatenate([a_cap, a_dem], axis=0)
    b_ub = np.concatenate([b_cap, np.zeros(len(sessions))])

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:
        raise InfeasibleProblemError(f"exact M2 LP failed: {result.message}")

    rates = []
    tree_flows = []
    for index, (session, trees) in enumerate(zip(sessions, all_trees)):
        start = offsets[index]
        x = result.x[start : start + len(trees)]
        rates.append(float(x.sum()))
        tree_flows.append({trees[t]: float(v) for t, v in enumerate(x) if v > 1e-9})
    solution = ExactSolution(
        objective=float(-result.fun),
        session_rates=tuple(rates),
        tree_flows=tuple(tree_flows),
    )
    object.__setattr__(solution, "_receivers", tuple(s.num_receivers for s in sessions))
    return solution
