"""MaxFlow — the FPTAS for the overlay maximum flow problem (paper Table I).

Problem M1 maximises the aggregate receiver throughput over all sessions,
allowing each session's commodity to be split over arbitrarily many
overlay trees.  Following Garg–Könemann (and the paper's Table I):

1. every edge length starts at ``delta``,
2. each iteration computes the minimum overlay spanning tree of every
   session under the current lengths, normalises the lengths by the
   receiver-count ratio ``(|Smax| - 1) / (|S_i| - 1)``, and picks the
   overall minimum,
3. if that normalised length is at least 1 the algorithm stops; otherwise
   it routes the tree's bottleneck capacity ``min_e c_e / n_e(t)`` along
   the tree and multiplies the lengths of the tree's edges by
   ``1 + eps * n_e(t) * c / c_e``,
4. finally the accumulated (infeasible) flow is scaled by
   ``log_{1+eps}((1 + eps) / delta)`` which makes it feasible and within
   ``(1 - 2 eps)`` of the optimum.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.engine import MaxFlowPolicy, NormalizedLengthStop, PhaseEngine
from repro.core.lengths import LengthFunction, epsilon_for_ratio
from repro.core.result import FlowSolution, SessionResult, TreeFlow
from repro.overlay.oracle import build_oracles
from repro.overlay.session import Session
from repro.routing.base import RoutingModel
from repro.util.errors import ConfigurationError


def max_flow(
    sessions: Sequence[Session],
    routing: RoutingModel,
    approximation_ratio: Optional[float] = 0.95,
    epsilon: Optional[float] = None,
    max_iterations: Optional[int] = None,
) -> FlowSolution:
    """MaxFlow FPTAS (paper M1 / Table I): maximise aggregate throughput.

    Parameters
    ----------
    approximation_ratio:
        Target ratio ``1 - 2 epsilon``; used only when ``epsilon`` is
        ``None``.
    epsilon:
        The FPTAS accuracy parameter, in ``(0, 0.5)``; the returned flow
        is at least ``(1 - 2 epsilon)`` times optimal.  Takes precedence
        over ``approximation_ratio``.
    max_iterations:
        Hard safety cap on augmentation iterations.  ``None`` derives the
        provable bound from Lemma 1 with a x10 safety factor.
    """
    if not sessions:
        raise ConfigurationError("at least one session is required")
    sessions = list(sessions)
    network = routing.network
    for s in sessions:
        s.validate_against(network)
    if epsilon is not None:
        if not 0 < epsilon < 0.5:
            raise ConfigurationError(f"epsilon must be in (0, 0.5), got {epsilon}")
        epsilon = float(epsilon)
    elif approximation_ratio is not None:
        epsilon = epsilon_for_ratio(approximation_ratio, slack_factor=2.0)
    else:
        raise ConfigurationError(
            "exactly one of epsilon / approximation_ratio must be set"
        )
    oracles = build_oracles(sessions, routing)
    capacities = network.capacities
    num_edges = network.num_edges
    max_size = max(s.size for s in sessions)
    longest_route = max(1, max(o.max_route_length() for o in oracles))

    lengths = LengthFunction.for_maxflow(num_edges, epsilon, max_size, longest_route)

    # Scale factor applied to the raw flow at the end (Lemma 2):
    # log_{1+eps}((1 + eps) / delta).
    log_delta = lengths.log_offset
    scale_denominator = (math.log1p(epsilon) - log_delta) / math.log1p(epsilon)

    if max_iterations is not None:
        iteration_cap = max_iterations
    else:
        iteration_cap = int(10 * num_edges * max(1.0, scale_denominator)) + 10

    # Table I on the shared phase engine: every step queries all
    # sessions (one batched pass over the shared length array), routes
    # the bottleneck of the minimum normalised tree, and stops when
    # that normalised length reaches 1.
    engine = PhaseEngine(
        oracles=oracles,
        lengths=lengths,
        capacities=capacities,
        policy=MaxFlowPolicy(epsilon=epsilon, max_session_size=max_size),
        stopping=NormalizedLengthStop(),
        step_cap=iteration_cap,
        cap_message=f"MaxFlow exceeded the iteration cap of {iteration_cap}",
    )
    engine.run()

    scale = 1.0 / scale_denominator
    results = tuple(
        SessionResult(session=acc.session, tree_flows=tuple(acc.scaled(scale)))
        for acc in engine.accumulators
    )
    # Guard against the final augmentation pushing a link marginally over
    # capacity: rescale uniformly if the scaled flow is infeasible.
    probe = FlowSolution(algorithm="MaxFlow", sessions=results, network=network)
    congestion = probe.max_congestion()
    if congestion > 1.0:
        results = tuple(
            SessionResult(
                session=s.session,
                tree_flows=tuple(
                    TreeFlow(tree=tf.tree, flow=tf.flow / congestion)
                    for tf in s.tree_flows
                ),
            )
            for s in results
        )
    return FlowSolution(
        algorithm="MaxFlow",
        sessions=results,
        network=network,
        epsilon=epsilon,
        oracle_calls=engine.oracle_calls,
        extra={
            "iterations": float(engine.steps),
            "scale_denominator": scale_denominator,
            "longest_route": float(longest_route),
            "routing": "dynamic" if routing.is_dynamic else "fixed",
        },
        instrumentation=engine.instrumentation.snapshot(),
    )
