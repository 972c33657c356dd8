"""High-level façade over the four algorithms (thin shim).

Historically this module hand-wired solver configs and routing dispatch;
it is now a thin compatibility layer over :mod:`repro.api` — the
declarative spec / registry surface — so that argument conventions live
in exactly one place (:mod:`repro.api.registry`).  New code should
prefer ``repro.api``: build a :class:`~repro.api.specs.ScenarioSpec` and
call :func:`~repro.api.service.solve`, or dispatch prebuilt objects with
:func:`~repro.api.service.solve_instance`.  These are the library's only
solver convenience functions (``repro`` re-exports them); the algorithm
modules define none.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.maxconcurrent import standalone_rates
from repro.core.result import FlowSolution
from repro.core.rounding import RandomMinCongestion, RoundedSelection
from repro.overlay.session import Session
from repro.routing.base import RoutingModel
from repro.topology.network import PhysicalNetwork
from repro.util.rng import SeedLike


def make_routing(network: PhysicalNetwork, kind: str = "ip") -> RoutingModel:
    """Build a routing model by name: ``"ip"`` (fixed) or ``"dynamic"``."""
    from repro.api.registry import default_registry

    return default_registry().build_routing(network, kind)


def solve_max_flow(
    sessions: Sequence[Session],
    routing: RoutingModel,
    approximation_ratio: float = 0.95,
    epsilon: Optional[float] = None,
) -> FlowSolution:
    """Solve the overlay maximum flow problem (paper M1 / Table I)."""
    from repro.api.registry import default_registry

    return default_registry().solver("max_flow")(
        sessions, routing, approximation_ratio=approximation_ratio, epsilon=epsilon
    )


def solve_max_concurrent_flow(
    sessions: Sequence[Session],
    routing: RoutingModel,
    approximation_ratio: float = 0.95,
    epsilon: Optional[float] = None,
    prescale_epsilon: float = 0.1,
) -> FlowSolution:
    """Solve the overlay maximum concurrent flow problem (paper M2 / Table III)."""
    from repro.api.registry import default_registry

    return default_registry().solver("max_concurrent_flow")(
        sessions,
        routing,
        approximation_ratio=approximation_ratio,
        epsilon=epsilon,
        prescale_epsilon=prescale_epsilon,
    )


def solve_online(
    sessions: Sequence[Session],
    routing: RoutingModel,
    sigma: float = 10.0,
    group_by_members: bool = True,
) -> FlowSolution:
    """Route sessions online, one tree each, in arrival order (paper Table VI)."""
    from repro.api.registry import default_registry

    return default_registry().solver("online")(
        sessions, routing, sigma=sigma, group_by_members=group_by_members
    )


def solve_randomized_rounding(
    fractional: FlowSolution,
    max_trees: int = 1,
    seed: SeedLike = None,
) -> RoundedSelection:
    """Randomized rounding of a fractional solution (paper Table V).

    Takes an already-solved fractional solution, so it stays a direct
    call; the registry's ``"randomized_rounding"`` solver is the
    spec-addressable variant that also performs the fractional solve.
    """
    return RandomMinCongestion(fractional, seed=seed).select_trees(max_trees)


def standalone_session_rates(
    sessions: Sequence[Session],
    routing: RoutingModel,
    epsilon: float = 0.1,
) -> List[float]:
    """Maximum rate of each session when it has the network to itself.

    This is the quantity ``beta_i`` that MaxConcurrentFlow's pre-scaling
    uses to bound the concurrent-flow optimum (the same loop); exposed
    because experiments also report it as the "single-session" baseline
    (Fig. 12 with one session).
    """
    rates, _ = standalone_rates(sessions, routing, epsilon)
    return rates.tolist()
