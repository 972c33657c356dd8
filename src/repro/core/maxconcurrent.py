"""MaxConcurrentFlow — FPTAS for the overlay maximum concurrent flow problem.

Problem M2 maximises the throughput fraction ``f`` such that every session
``S_i`` can simultaneously route ``f * dem(i)`` units of its commodity —
i.e. weighted max-min fairness with the demands as weights.  The algorithm
is the paper's Table III (a Garg–Könemann / Fleischer scheme organised in
phases, iterations, and steps), together with the two practical
ingredients discussed in Section III-C:

* **demand pre-scaling** — per-session MaxFlow runs compute the standalone
  maximum rates ``beta_i``; demands are rescaled so the optimum ``lambda``
  lies in ``[1, k]`` (required by Lemmas 4–6),
* **demand doubling** — if the algorithm has not stopped after the phase
  bound implied by ``lambda <= 2``, demands are doubled (halving
  ``lambda``) and the run continues.

The paper's Table IV reports the cost of the pre-scaling step separately
from the main run; :attr:`FlowSolution.extra` carries both counters.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import ConcurrentPhasePolicy, DualObjectiveStop, PhaseEngine
from repro.core.lengths import LengthFunction, epsilon_for_ratio
from repro.core.maxflow import max_flow
from repro.core.result import FlowSolution, SessionResult, TreeFlow
from repro.overlay.oracle import build_oracles
from repro.overlay.session import Session
from repro.routing.base import RoutingModel
from repro.util.errors import ConfigurationError, InfeasibleProblemError


def standalone_rates(
    sessions: Sequence[Session], routing: RoutingModel, epsilon: float
) -> Tuple[np.ndarray, int]:
    """Per-session standalone MaxFlow rates ``beta_i`` and their oracle cost.

    The demand pre-scaling of Section III-C: each session solves MaxFlow
    alone on the network, one after the other, at accuracy ``epsilon``.
    """
    rates = []
    calls = 0
    for session in sessions:
        solution = max_flow([session], routing, epsilon=epsilon)
        rates.append(solution.sessions[0].rate)
        calls += solution.oracle_calls
    return np.asarray(rates, dtype=float), calls


def max_concurrent_flow(
    sessions: Sequence[Session],
    routing: RoutingModel,
    approximation_ratio: Optional[float] = 0.95,
    epsilon: Optional[float] = None,
    prescale_epsilon: float = 0.1,
    max_steps: Optional[int] = None,
) -> FlowSolution:
    """MaxConcurrentFlow FPTAS (paper M2 / Table III): max-min fairness.

    Parameters
    ----------
    approximation_ratio:
        Target ratio ``1 - 3 epsilon``; used only when ``epsilon`` is
        ``None``.
    epsilon:
        Accuracy parameter, in ``(0, 1/3)``; the result is at least
        ``(1 - 3 epsilon)`` times the optimal concurrent throughput.
        Takes precedence over ``approximation_ratio``.
    prescale_epsilon:
        Accuracy of the per-session MaxFlow runs used only to bound the
        optimum for demand scaling; a loose value keeps the pre-step cheap
        without affecting the final guarantee.
    max_steps:
        Hard safety cap on routing steps (``None`` = derive from theory
        with a generous factor).
    """
    if not sessions:
        raise ConfigurationError("at least one session is required")
    sessions = list(sessions)
    network = routing.network
    for s in sessions:
        s.validate_against(network)
    if epsilon is not None:
        if not 0 < epsilon < 1.0 / 3.0:
            raise ConfigurationError(f"epsilon must be in (0, 1/3), got {epsilon}")
        epsilon = float(epsilon)
    elif approximation_ratio is not None:
        epsilon = epsilon_for_ratio(approximation_ratio, slack_factor=3.0)
    else:
        raise ConfigurationError(
            "exactly one of epsilon / approximation_ratio must be set"
        )
    capacities = network.capacities
    num_edges = network.num_edges
    k = len(sessions)

    beta, prescale_calls = standalone_rates(sessions, routing, prescale_epsilon)
    demands = np.asarray([s.demand for s in sessions], dtype=float)
    zeta = float(np.min(beta / demands))
    if zeta <= 0:
        raise InfeasibleProblemError(
            "a session has zero standalone throughput; its members are "
            "likely disconnected"
        )
    # Scale demands so the optimal concurrent throughput lies in [1, k].
    working_demands = demands * (zeta / k)

    oracles = build_oracles(sessions, routing)
    lengths = LengthFunction.for_concurrent(capacities, epsilon)

    # Final scaling factor (Lemma 4): divide flows by log_{1+eps}(1/delta).
    log_delta = lengths.log_offset
    scale_denominator = -log_delta / math.log1p(epsilon)

    # Phase budget before demand doubling (Lemma 6 with OPT <= 2).
    phase_budget = 1 + int(
        math.ceil((2.0 / epsilon) * (math.log(num_edges / (1.0 - epsilon)) / math.log1p(epsilon)))
    )
    if max_steps is not None:
        step_cap = max_steps
    else:
        step_cap = int(20 * (num_edges + k) * max(1.0, scale_denominator)) + 100

    # Table III on the shared phase engine: the policy owns the
    # phase/session/remaining-demand bookkeeping and the demand
    # doubling; the dual-objective stopping rule is checked before
    # every step, which reproduces the nested
    # ``while remaining > 0 and not dual()`` structure exactly.
    policy = ConcurrentPhasePolicy(
        epsilon=epsilon,
        working_demands=working_demands,
        phase_budget=phase_budget,
    )
    engine = PhaseEngine(
        oracles=oracles,
        lengths=lengths,
        capacities=capacities,
        policy=policy,
        stopping=DualObjectiveStop(capacities),
        step_cap=step_cap,
        cap_message=f"MaxConcurrentFlow exceeded the step cap of {step_cap}",
    )
    engine.run()

    scale = 1.0 / scale_denominator
    results = tuple(
        SessionResult(session=acc.session, tree_flows=tuple(acc.scaled(scale)))
        for acc in engine.accumulators
    )
    main_calls = engine.oracle_calls
    # Lemma 4 only guarantees feasibility for the flow of the completed
    # phases; the flow routed during the final (partial) phase can push a
    # link marginally above capacity.  Rescale by the max congestion so
    # the returned solution is always strictly feasible without changing
    # the relative (fair) rate split.
    probe = FlowSolution(
        algorithm="MaxConcurrentFlow", sessions=results, network=network
    )
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
        algorithm="MaxConcurrentFlow",
        sessions=results,
        network=network,
        epsilon=epsilon,
        oracle_calls=main_calls + prescale_calls,
        extra={
            "phases": float(policy.phases),
            "steps": float(engine.steps),
            "doublings": float(policy.doublings),
            "main_oracle_calls": float(main_calls),
            "prescale_oracle_calls": float(prescale_calls),
            "zeta_upper_bound": zeta,
            "routing": "dynamic" if routing.is_dynamic else "fixed",
        },
        instrumentation=engine.instrumentation.snapshot(),
    )
