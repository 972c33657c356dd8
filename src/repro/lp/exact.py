"""Exact tree LPs: M1, M2 and Section II-C's tree packing, solved as one LP.

All three are one linear program over overlay trees.  Its variables are
tree flows, one column block per session; its rows cap the load on each
capacity row.  :func:`solve_tree_lp` assembles it sparse and solves it
with ``scipy.optimize.linprog`` (HiGHS):

* M1 (paper eq. 3) maximises the receiver-weighted tree flow;
* M2 (eq. 4) adds a ``lambda`` column and one demand row per session;
* the packing of problem S (eq. 5) is M1 with one session, the overlay
  pairs as capacity rows and the overlay weights as capacities.

A session's block is ``T @ R``: ``T`` the tree-by-pair 0/1 incidence of
every overlay spanning tree (Prüfer enumeration,
:func:`~repro.overlay.tree_packing.tree_pair_incidence`) and ``R`` the
pair-by-edge incidence of the fixed IP routes
(:meth:`~repro.routing.ip_routing.FixedIPRouting.incidence_for_members`),
so row ``t`` is the usage vector ``n_e(t)``.  Tree packing takes ``R``
as the identity, so its block is ``T`` itself.

Enumeration is exponential in the session size (Cayley: ``|S|^(|S|-2)``
trees), so sessions are capped at :data:`MAX_MEMBERS` members.  These
optima are ground truth for the FPTAS, the rounding algorithms and the
property tests — the role the ellipsoid-based formulation plays in the
paper's theory sections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.overlay.session import Session
from repro.overlay.tree_packing import enumerate_spanning_trees, tree_pair_incidence
from repro.routing.base import PairKey, RoutingModel
from repro.util.errors import ConfigurationError, InfeasibleProblemError, ReproError

#: Largest session whose overlay trees are enumerated (6^4 = 1296 trees).
MAX_MEMBERS = 6


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
    receivers:
        Receivers per session, ``|S_i| - 1``.
    """

    objective: float
    session_rates: Tuple[float, ...]
    tree_flows: Tuple[Dict[Tuple[PairKey, ...], float], ...]
    receivers: Tuple[int, ...]

    @property
    def overall_throughput(self) -> float:
        """Aggregate receiver rate given the stored session rates."""
        return float(sum(self.receivers[i] * r for i, r in enumerate(self.session_rates)))


def solve_tree_lp(
    capacities: np.ndarray,
    blocks: Sequence[sparse.csr_matrix],
    name: str,
    error: Type[ReproError],
    weights: Optional[Sequence[float]] = None,
    demands: Optional[Sequence[float]] = None,
) -> Tuple[float, List[np.ndarray]]:
    """Optimum of the tree LP and each block's tree flows.

    ``blocks[i]`` has one row per tree of session ``i`` and one column
    per capacity row; entry ``(t, e)`` is how often tree ``t`` loads row
    ``e``.  With ``weights`` the LP maximises ``sum_i weights[i] *
    (flow of session i)`` (M1); with ``demands`` it maximises ``lambda``
    subject to every session carrying at least ``lambda * demands[i]``
    (M2).  All variables are non-negative.  Raises ``error`` with the
    message ``"<name> failed: <HiGHS message>"`` when HiGHS finds no
    optimum.
    """
    usage = sparse.vstack(blocks).T  # capacity rows x tree columns
    sizes = [block.shape[0] for block in blocks]
    num_trees = usage.shape[1]
    if demands is None:
        c = np.repeat(-np.asarray(weights, dtype=float), sizes)
        a_ub, b_ub = usage, capacities
    else:
        # Columns: the trees, then lambda.  Rows: the capacities, then
        # lambda * dem(i) - sum_j f_j^i <= 0 per session.
        c = np.zeros(num_trees + 1)
        c[-1] = -1.0
        session_of = np.repeat(np.arange(len(blocks)), sizes)
        flow_rows = sparse.csr_matrix(
            (np.full(num_trees, -1.0), (session_of, np.arange(num_trees))),
            shape=(len(blocks), num_trees),
        )
        demand_column = sparse.csr_matrix(np.asarray(demands, dtype=float).reshape(-1, 1))
        a_ub = sparse.bmat([[usage, None], [flow_rows, demand_column]])
        b_ub = np.concatenate([capacities, np.zeros(len(blocks))])
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:
        raise error(f"{name} failed: {result.message}")
    return float(-result.fun), np.split(result.x[:num_trees], np.cumsum(sizes)[:-1])


def _session_columns(
    session: Session, routing: RoutingModel
) -> Tuple[List[Tuple[PairKey, ...]], sparse.csr_matrix]:
    """Every overlay tree of ``session`` and its ``T @ R`` usage rows."""
    if routing.is_dynamic:
        raise ConfigurationError(
            "exact tree enumeration needs fixed IP routing; dynamic routes "
            "change with the lengths, so this LP would give the fixed-route "
            "optimum, not the dynamic one"
        )
    if session.size > MAX_MEMBERS:
        raise ConfigurationError(
            f"exact enumeration limited to {MAX_MEMBERS} members, "
            f"session has {session.size}"
        )
    members = list(session.members)
    trees = enumerate_spanning_trees(members)
    return trees, tree_pair_incidence(trees, members) @ routing.incidence_for_members(members)


def enumerate_session_trees(
    session: Session, routing: RoutingModel
) -> Tuple[List[Tuple[PairKey, ...]], np.ndarray]:
    """All overlay trees of a session and their ``n_e(t)`` usage matrix.

    Returns ``(trees, usage)`` where ``usage[t]`` is the dense
    per-physical-edge traversal-count vector of tree ``t`` under the
    fixed IP routes.  Limited to :data:`MAX_MEMBERS` members.  Dynamic
    routing is refused: its trees change with the lengths, so no fixed
    usage matrix describes them, and the fixed-route optimum is only a
    lower bound on its optimum.
    """
    trees, usage = _session_columns(session, routing)
    return trees, usage.toarray()


def _solve_exact(
    sessions: Sequence[Session], routing: RoutingModel, name: str, **objective
) -> ExactSolution:
    if not sessions:
        raise ConfigurationError("at least one session is required")
    columns = [_session_columns(session, routing) for session in sessions]
    value, flows = solve_tree_lp(
        routing.network.capacities,
        [usage for _, usage in columns],
        name,
        InfeasibleProblemError,
        **objective,
    )
    return ExactSolution(
        objective=value,
        session_rates=tuple(float(x.sum()) for x in flows),
        tree_flows=tuple(
            {trees[t]: float(v) for t, v in enumerate(x) if v > 1e-9}
            for (trees, _), x in zip(columns, flows)
        ),
        receivers=tuple(session.num_receivers for session in sessions),
    )


def exact_max_flow(sessions: Sequence[Session], routing: RoutingModel) -> ExactSolution:
    """Exact optimum of problem M1 (maximum overlay flow).

    Objective (paper eq. 3): maximise
    ``sum_i sum_j (|S_i| - 1) / (|Smax| - 1) * f_j^i`` subject to the
    per-edge capacity constraints ``sum n_e(t) f <= c_e``.
    """
    # No sessions give no weights, and _solve_exact refuses them.
    largest = max((session.size for session in sessions), default=0)
    return _solve_exact(
        sessions,
        routing,
        "exact M1 LP",
        weights=[(session.size - 1) / (largest - 1) for session in sessions],
    )


def exact_max_concurrent_flow(
    sessions: Sequence[Session], routing: RoutingModel
) -> ExactSolution:
    """Exact optimum of problem M2 (maximum concurrent overlay flow).

    Objective (paper eq. 4): maximise ``lambda`` subject to every session
    routing at least ``lambda * dem(i)`` units and the capacity
    constraints.
    """
    return _solve_exact(
        sessions,
        routing,
        "exact M2 LP",
        demands=[session.demand for session in sessions],
    )
