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
from the main run; :class:`FlowSolution.extra` carries both counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import ConcurrentPhasePolicy, DualObjectiveStop, PhaseEngine
from repro.core.lengths import LengthFunction, epsilon_for_ratio
from repro.core.maxflow import MaxFlow, MaxFlowConfig
from repro.core.result import FlowSolution, SessionResult, TreeFlow
from repro.overlay.oracle import build_oracles
from repro.overlay.session import Session
from repro.routing.base import RoutingModel
from repro.util.errors import ConfigurationError, InfeasibleProblemError


@dataclass(frozen=True)
class MaxConcurrentFlowConfig:
    """Configuration of the MaxConcurrentFlow FPTAS.

    Attributes
    ----------
    epsilon:
        Accuracy parameter; the result is at least ``(1 - 3 epsilon)``
        times the optimal concurrent throughput.
    approximation_ratio:
        Convenience alternative: target ratio ``1 - 3 epsilon``.
    prescale_epsilon:
        Accuracy of the per-session MaxFlow runs used only to bound the
        optimum for demand scaling; a loose value keeps the pre-step cheap
        without affecting the final guarantee.
    max_steps:
        Hard safety cap on routing steps (``None`` = derive from theory
        with a generous factor).
    """

    epsilon: Optional[float] = None
    approximation_ratio: Optional[float] = None
    prescale_epsilon: float = 0.1
    max_steps: Optional[int] = None

    def resolved_epsilon(self) -> float:
        """The epsilon actually used (resolving the ratio form)."""
        if (self.epsilon is None) == (self.approximation_ratio is None):
            raise ConfigurationError(
                "exactly one of epsilon / approximation_ratio must be set"
            )
        if self.epsilon is not None:
            if not 0 < self.epsilon < 1.0 / 3.0:
                raise ConfigurationError(
                    f"epsilon must be in (0, 1/3), got {self.epsilon}"
                )
            return float(self.epsilon)
        return epsilon_for_ratio(self.approximation_ratio, slack_factor=3.0)


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
        solution = MaxFlow([session], routing, MaxFlowConfig(epsilon=epsilon)).solve()
        rates.append(solution.sessions[0].rate)
        calls += solution.oracle_calls
    return np.asarray(rates, dtype=float), calls


class MaxConcurrentFlow:
    """The maximum concurrent flow FPTAS over overlay spanning trees."""

    def __init__(
        self,
        sessions: Sequence[Session],
        routing: RoutingModel,
        config: Optional[MaxConcurrentFlowConfig] = None,
    ) -> None:
        if not sessions:
            raise ConfigurationError("at least one session is required")
        self._sessions = list(sessions)
        for s in self._sessions:
            s.validate_against(routing.network)
        self._routing = routing
        self._network = routing.network
        self._config = config or MaxConcurrentFlowConfig(approximation_ratio=0.95)

    # ------------------------------------------------------------------
    # main algorithm
    # ------------------------------------------------------------------
    def solve(self) -> FlowSolution:
        """Run the FPTAS and return a feasible, near max-min-fair flow."""
        epsilon = self._config.resolved_epsilon()
        network = self._network
        capacities = network.capacities
        num_edges = network.num_edges
        k = len(self._sessions)

        beta, prescale_calls = standalone_rates(
            self._sessions, self._routing, self._config.prescale_epsilon
        )
        demands = np.asarray([s.demand for s in self._sessions], dtype=float)
        zeta = float(np.min(beta / demands))
        if zeta <= 0:
            raise InfeasibleProblemError(
                "a session has zero standalone throughput; its members are "
                "likely disconnected"
            )
        # Scale demands so the optimal concurrent throughput lies in [1, k].
        working_demands = demands * (zeta / k)

        oracles = build_oracles(self._sessions, self._routing)
        lengths = LengthFunction.for_concurrent(capacities, epsilon)

        # Final scaling factor (Lemma 4): divide flows by log_{1+eps}(1/delta).
        log_delta = lengths.log_offset
        scale_denominator = -log_delta / math.log1p(epsilon)

        # Phase budget before demand doubling (Lemma 6 with OPT <= 2).
        phase_budget = 1 + int(
            math.ceil((2.0 / epsilon) * (math.log(num_edges / (1.0 - epsilon)) / math.log1p(epsilon)))
        )
        if self._config.max_steps is not None:
            step_cap = self._config.max_steps
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
        run = engine.run()
        steps = run.steps
        phases = policy.phases
        doublings = policy.doublings

        scale = 1.0 / scale_denominator
        sessions = tuple(
            SessionResult(session=acc.session, tree_flows=tuple(acc.scaled(scale)))
            for acc in run.accumulators
        )
        main_calls = sum(o.call_count for o in oracles)
        solution = FlowSolution(
            algorithm="MaxConcurrentFlow",
            sessions=sessions,
            network=network,
            epsilon=epsilon,
            oracle_calls=main_calls + prescale_calls,
        )
        # Lemma 4 only guarantees feasibility for the flow of the completed
        # phases; the flow routed during the final (partial) phase can push a
        # link marginally above capacity.  Rescale by the max congestion so
        # the returned solution is always strictly feasible without changing
        # the relative (fair) rate split.
        congestion = solution.max_congestion()
        if congestion > 1.0:
            sessions = tuple(
                SessionResult(
                    session=s.session,
                    tree_flows=tuple(
                        TreeFlow(tree=tf.tree, flow=tf.flow / congestion)
                        for tf in s.tree_flows
                    ),
                )
                for s in sessions
            )
        solution = FlowSolution(
            algorithm="MaxConcurrentFlow",
            sessions=sessions,
            network=network,
            epsilon=epsilon,
            oracle_calls=main_calls + prescale_calls,
            extra={
                "phases": float(phases),
                "steps": float(steps),
                "doublings": float(doublings),
                "main_oracle_calls": float(main_calls),
                "prescale_oracle_calls": float(prescale_calls),
                "zeta_upper_bound": zeta,
                "routing": "dynamic" if self._routing.is_dynamic else "fixed",
            },
            instrumentation=run.instrumentation.snapshot(),
        )
        return solution
