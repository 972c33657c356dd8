"""What the two FPTAS solvers share: the epsilon rule and the finish.

MaxFlow (Table I) and MaxConcurrentFlow (Table III) take their accuracy
as ``epsilon`` or as a target ``approximation_ratio``, and both end the
same way: the accumulated flow is scaled by the Lemma 2 or Lemma 4
factor, then divided by the maximum congestion if the last step pushed
a link over capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.core.lengths import epsilon_for_ratio
from repro.core.result import FlowSolution, SessionResult, TreeFlow
from repro.routing.base import RoutingModel
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import PhaseEngine


def resolve_epsilon(
    epsilon: Optional[float], approximation_ratio: Optional[float], slack: int
) -> float:
    """The run's ``epsilon`` under a ``(1 - slack * epsilon)`` guarantee.

    ``epsilon`` wins and must lie in ``(0, 1/slack)``; otherwise the ratio
    maps through :func:`epsilon_for_ratio`.  Slack is 2 for MaxFlow
    (Lemma 3) and 3 for MaxConcurrentFlow (Lemma 5).
    """
    if epsilon is not None:
        if not 0 < epsilon < 1.0 / slack:
            bound = "0.5" if slack == 2 else f"1/{slack}"
            raise ConfigurationError(f"epsilon must be in (0, {bound}), got {epsilon}")
        return float(epsilon)
    if approximation_ratio is not None:
        return epsilon_for_ratio(approximation_ratio, slack_factor=slack)
    raise ConfigurationError("exactly one of epsilon / approximation_ratio must be set")


def finish(
    algorithm: str,
    engine: "PhaseEngine",
    routing: RoutingModel,
    epsilon: float,
    scale_denominator: float,
    extra: Mapping[str, float],
    prescale_oracle_calls: int = 0,
) -> FlowSolution:
    """The feasible solution of a finished FPTAS run.

    Every accumulated flow is multiplied by ``1 / scale_denominator``.  If
    that still leaves a link over capacity, every tree flow is divided by
    the maximum congestion: a division, since multiplying by the
    reciprocal changes last bits.  ``extra`` is followed by ``routing``.
    """
    network = routing.network
    scale = 1.0 / scale_denominator
    sessions = tuple(
        SessionResult(session=acc.session, tree_flows=tuple(acc.scaled(scale)))
        for acc in engine.accumulators
    )
    congestion = FlowSolution(
        algorithm=algorithm, sessions=sessions, network=network
    ).max_congestion()
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
    return FlowSolution(
        algorithm=algorithm,
        sessions=sessions,
        network=network,
        epsilon=epsilon,
        oracle_calls=engine.oracle_calls + prescale_oracle_calls,
        extra={**extra, "routing": "dynamic" if routing.is_dynamic else "fixed"},
        instrumentation=engine.instrumentation.snapshot(),
    )
