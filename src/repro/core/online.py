"""Online-MinCongestion — the online unsplittable tree-selection algorithm.

Paper Table VI / Section IV-C.  Sessions arrive one at a time; each
arriving session is routed on a *single* overlay tree — the minimum
overlay spanning tree under the current exponential length function — and
never rerouted.  The algorithm keeps, per physical edge,

* the length ``d_e`` (multiplied by ``1 + sigma * n_e(t) * dem(i) / c_e``
  whenever a tree crosses the edge), and
* the congestion ``l_e`` (incremented by ``n_e(t) * dem(i) / c_e``).

Scaling all demands by the final maximum congestion ``l_max`` yields a
feasible solution whose congestion is within ``O(log |E|)`` of the
optimum (paper Theorem 4).  The step size ``sigma`` is the knob the
paper's Fig. 5/6 sweeps (there written as ``r``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.engine import OnlineArrivalPolicy, PhaseEngine, RunToExhaustion
from repro.core.lengths import LengthFunction
from repro.core.result import FlowSolution, SessionResult, TreeFlow
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.routing.base import RoutingModel
from repro.util.errors import ConfigurationError


def online_min_congestion(
    sessions: Sequence[Session],
    routing: RoutingModel,
    sigma: float = 10.0,
    group_by_members: bool = True,
    apply_no_bottleneck_scaling: bool = False,
) -> FlowSolution:
    """Online-MinCongestion (paper Table VI): one tree per arrival, in order.

    ``sessions`` is the arrival sequence.  Every rate is scaled by
    ``1 / l_max`` so the busiest physical link is exactly saturated (the
    paper's way of turning congestion into achievable throughput); when
    ``l_max`` is zero, rates are reported as raw demands.

    Parameters
    ----------
    sigma:
        Step size of the length update (the paper's ``r`` in Figs 5/6).
    group_by_members:
        The paper's experiments replicate every logical session into
        many independently-arriving copies; with this flag all copies
        sharing the same member set are reported as one session whose
        rate is the sum of its copies' rates (how Figs 5/6 and 18/19
        present results).
    apply_no_bottleneck_scaling:
        When true, demands are scaled down so that
        ``max_i dem(i) * |Smax| / min_e c_e = 1 / (2k)``, the paper's
        sufficient condition for the Theorem 4 bound.  The scaling only
        affects the routing decisions through the length updates; reported
        rates are always re-expressed in original demand units.
    """
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    network = routing.network
    arrivals = list(sessions)
    for session in arrivals:
        session.validate_against(network)
    if not arrivals:
        raise ConfigurationError("at least one session is required")
    demand_scale = 1.0
    if apply_no_bottleneck_scaling:
        k = len(arrivals)
        max_dem = max(s.demand for s in arrivals)
        max_size = max(s.size for s in arrivals)
        min_cap = float(np.min(network.capacities))
        # Choose scale so max dem(i) * |Smax| / min c_e == 1 / (2k).
        target = min_cap / (2.0 * k * max_size)
        demand_scale = target / max_dem

    # One oracle per distinct member set, in first-arrival order: all
    # replicas of a logical session hit one oracle and its tree cache.
    oracles: List[MinimumOverlayTreeOracle] = []
    oracle_of: Dict[Tuple[int, ...], int] = {}
    indices = []
    for session in arrivals:
        key = tuple(sorted(session.members))
        if key not in oracle_of:
            oracle_of[key] = len(oracles)
            oracles.append(MinimumOverlayTreeOracle(session, routing))
        indices.append(oracle_of[key])

    # Table VI on the shared phase engine: each arrival is one step.
    policy = OnlineArrivalPolicy(sigma, arrivals, indices, demand_scale)
    engine = PhaseEngine(
        oracles=oracles,
        lengths=LengthFunction.for_online(network.capacities),
        capacities=network.capacities,
        policy=policy,
        stopping=RunToExhaustion(),
        accumulate_flows=False,
        track_congestion=True,
    )
    engine.run()

    congestion = engine.congestion
    lmax = float(congestion.max()) if congestion.size else 0.0
    # Congestion is measured in *scaled* demand units; rates below are
    # expressed in original units, so the rate of one copy is
    # dem / (lmax / demand_scale).
    effective_lmax = lmax / demand_scale if demand_scale > 0 else lmax
    if effective_lmax > 0:
        rate_factor = 1.0 / effective_lmax
    else:
        rate_factor = 1.0

    groups: Dict[Tuple[int, ...], List[Tuple[Session, OverlayTree, float]]] = {}
    order: List[Tuple[int, ...]] = []
    for session, tree, demand in policy.assignments:
        key = tuple(sorted(session.members)) if group_by_members else (id(session),)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((session, tree, demand))

    session_results = []
    for key in order:
        entries = groups[key]
        base_session = entries[0][0]
        total_demand = sum(d for _, _, d in entries)
        # Strip the "#<i>" replica suffix appended by Session.replicate.
        # rsplit keeps base names that themselves start with "#" intact
        # (a plain split("#")[0] would yield "" and fall back to the
        # full name, replica suffix included).
        representative = Session(
            base_session.members,
            demand=total_demand,
            source=base_session.source,
            name=base_session.name.rsplit("#", 1)[0] or base_session.name,
        )
        tree_flows: Dict[Tuple, TreeFlow] = {}
        for _, tree, demand in entries:
            flow = demand * rate_factor
            k = tree.canonical_key()
            if k in tree_flows:
                tree_flows[k] = TreeFlow(tree=tree, flow=tree_flows[k].flow + flow)
            else:
                tree_flows[k] = TreeFlow(tree=tree, flow=flow)
        session_results.append(
            SessionResult(session=representative, tree_flows=tuple(tree_flows.values()))
        )

    return FlowSolution(
        algorithm="Online-MinCongestion",
        sessions=tuple(session_results),
        network=network,
        epsilon=None,
        oracle_calls=engine.oracle_calls,
        extra={
            "sigma": sigma,
            "max_congestion": lmax,
            "effective_max_congestion": effective_lmax,
            "demand_scale": demand_scale,
            "num_arrivals": float(len(arrivals)),
            "routing": "dynamic" if routing.is_dynamic else "fixed",
        },
        instrumentation=engine.instrumentation.snapshot(),
    )
