"""Name → implementation registry for topologies, routing models and solvers.

The registry is the single dispatch point between declarative
:class:`~repro.api.specs.ScenarioSpec` strings and live code.  Three
namespaces:

* **topologies** — ``name -> generator(**params) -> PhysicalNetwork``,
* **routings** — ``name -> factory(network) -> RoutingModel``,
* **solvers** — ``name -> fn(sessions, routing, **params) -> FlowSolution``.

All built-in names are registered at import time; third-party code can
plug in more through the ``@register_solver("my_solver")`` /
``@register_topology`` / ``@register_routing`` decorators (open
registration, duplicate names rejected).  A name registered here is
immediately addressable from specs, the batch service, the serve layer
and the ``python -m repro.api`` CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.core.maxconcurrent import MaxConcurrentFlow, MaxConcurrentFlowConfig
from repro.core.maxflow import MaxFlow, MaxFlowConfig
from repro.core.online import OnlineConfig, OnlineMinCongestion
from repro.core.result import FlowSolution
from repro.core.rounding import RandomMinCongestion
from repro.overlay.session import Session
from repro.routing.base import RoutingModel
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.topology import generators as _topo
from repro.topology.barabasi import barabasi_albert_topology
from repro.topology.hierarchical import two_level_topology
from repro.topology.network import PhysicalNetwork
from repro.topology.waxman import waxman_topology
from repro.util.errors import ConfigurationError
from repro.util.rng import SeedLike

TopologyFactory = Callable[..., PhysicalNetwork]
RoutingFactory = Callable[[PhysicalNetwork], RoutingModel]
SolverFunction = Callable[..., FlowSolution]


class Registry:
    """String-keyed factories for topologies, routing models and solvers."""

    def __init__(self) -> None:
        self._topologies: Dict[str, TopologyFactory] = {}
        self._routings: Dict[str, RoutingFactory] = {}
        self._solvers: Dict[str, SolverFunction] = {}

    # ------------------------------------------------------------------
    # registration (decorator-friendly)
    # ------------------------------------------------------------------
    def _register(self, table: Dict, kind: str, name: str, fn=None):
        if not name:
            raise ConfigurationError(f"{kind} name must be non-empty")

        def decorate(func):
            if name in table:
                raise ConfigurationError(
                    f"{kind} {name!r} is already registered; "
                    f"pick a different name or remove the existing entry first"
                )
            table[name] = func
            return func

        return decorate if fn is None else decorate(fn)

    def register_topology(self, name: str, fn: Optional[TopologyFactory] = None):
        """Register a topology generator under ``name`` (usable as decorator)."""
        return self._register(self._topologies, "topology", name, fn)

    def register_routing(self, name: str, fn: Optional[RoutingFactory] = None):
        """Register a routing-model factory under ``name`` (usable as decorator).

        Routing names are case-insensitive: they are stored lower-cased,
        the form :meth:`routing` looks up.
        """
        return self._register(self._routings, "routing", name.lower(), fn)

    def register_solver(self, name: str, fn: Optional[SolverFunction] = None):
        """Register a solver function under ``name`` (usable as decorator).

        A solver function takes ``(sessions, routing, **params)`` and
        returns a :class:`FlowSolution`.
        """
        return self._register(self._solvers, "solver", name, fn)

    def remove(self, kind: str, name: str) -> None:
        """Remove a registered entry (plugin teardown / test hygiene)."""
        table = {
            "topology": self._topologies,
            "routing": self._routings,
            "solver": self._solvers,
        }.get(kind)
        if table is None:
            raise ConfigurationError(
                f"unknown registry kind {kind!r}; use 'topology', 'routing' or 'solver'"
            )
        if name not in table:
            raise ConfigurationError(f"{kind} {name!r} is not registered")
        del table[name]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def _lookup(self, table: Dict, kind: str, name: str):
        try:
            return table[name]
        except KeyError:
            known = ", ".join(sorted(table)) or "<none>"
            raise ConfigurationError(
                f"unknown {kind} {name!r}; registered: {known}"
            ) from None

    def topology(self, name: str) -> TopologyFactory:
        """The topology generator registered under ``name``."""
        return self._lookup(self._topologies, "topology", name)

    def routing(self, name: str) -> RoutingFactory:
        """The routing-model factory registered under ``name`` (any case)."""
        return self._lookup(self._routings, "routing", name.lower())

    def solver(self, name: str) -> SolverFunction:
        """The solver function registered under ``name``."""
        return self._lookup(self._solvers, "solver", name)

    def topology_names(self) -> List[str]:
        """Sorted names of registered topology generators."""
        return sorted(self._topologies)

    def routing_names(self) -> List[str]:
        """Sorted names of registered routing models."""
        return sorted(self._routings)

    def solver_names(self) -> List[str]:
        """Sorted names of registered solvers."""
        return sorted(self._solvers)

    def build_routing(self, network: PhysicalNetwork, kind: str) -> RoutingModel:
        """Build a routing model by (case-insensitive) registered name."""
        return self.routing(kind)(network)


_DEFAULT_REGISTRY = Registry()


def default_registry() -> Registry:
    """The process-wide registry holding the built-ins and any plugins."""
    return _DEFAULT_REGISTRY


def register_topology(name: str, fn: Optional[TopologyFactory] = None):
    """Register a topology generator in the default registry."""
    return _DEFAULT_REGISTRY.register_topology(name, fn)


def register_routing(name: str, fn: Optional[RoutingFactory] = None):
    """Register a routing-model factory in the default registry."""
    return _DEFAULT_REGISTRY.register_routing(name, fn)


def register_solver(name: str, fn: Optional[SolverFunction] = None):
    """Register a solver function in the default registry."""
    return _DEFAULT_REGISTRY.register_solver(name, fn)


# ----------------------------------------------------------------------
# built-in topologies
# ----------------------------------------------------------------------
register_topology("paper_flat", _topo.paper_flat_topology)
register_topology("paper_two_level", _topo.paper_two_level_topology)
register_topology("waxman", waxman_topology)
register_topology("barabasi_albert", barabasi_albert_topology)
register_topology("two_level", two_level_topology)
register_topology("grid", _topo.grid_topology)
register_topology("ring", _topo.ring_topology)
register_topology("complete", _topo.complete_topology)
register_topology("random_regular", _topo.random_regular_topology)

# ----------------------------------------------------------------------
# built-in routing models and their aliases
# ----------------------------------------------------------------------
for _name in ("ip", "fixed", "fixed-ip", "static"):
    register_routing(_name, FixedIPRouting)
for _name in ("dynamic", "arbitrary"):
    register_routing(_name, DynamicRouting)


# ----------------------------------------------------------------------
# built-in solvers — the paper's four algorithms
# ----------------------------------------------------------------------
@register_solver("max_flow")
def solve_max_flow_instance(
    sessions: Sequence[Session],
    routing: RoutingModel,
    approximation_ratio: float = 0.95,
    epsilon: Optional[float] = None,
    max_iterations: Optional[int] = None,
) -> FlowSolution:
    """MaxFlow FPTAS (paper M1 / Table I): maximise aggregate throughput."""
    config = MaxFlowConfig(
        epsilon=epsilon,
        approximation_ratio=None if epsilon is not None else approximation_ratio,
        max_iterations=max_iterations,
    )
    return MaxFlow(sessions, routing, config).solve()


@register_solver("max_concurrent_flow")
def solve_max_concurrent_flow_instance(
    sessions: Sequence[Session],
    routing: RoutingModel,
    approximation_ratio: float = 0.95,
    epsilon: Optional[float] = None,
    prescale_epsilon: float = 0.1,
    max_steps: Optional[int] = None,
) -> FlowSolution:
    """MaxConcurrentFlow FPTAS (paper M2 / Table III): max-min fairness."""
    config = MaxConcurrentFlowConfig(
        epsilon=epsilon,
        approximation_ratio=None if epsilon is not None else approximation_ratio,
        prescale_epsilon=prescale_epsilon,
        max_steps=max_steps,
    )
    return MaxConcurrentFlow(sessions, routing, config).solve()


@register_solver("online")
def solve_online_instance(
    sessions: Sequence[Session],
    routing: RoutingModel,
    sigma: float = 10.0,
    group_by_members: bool = True,
    apply_no_bottleneck_scaling: bool = False,
) -> FlowSolution:
    """Online-MinCongestion (paper Table VI): one tree per arrival, in order."""
    config = OnlineConfig(
        sigma=sigma,
        apply_no_bottleneck_scaling=apply_no_bottleneck_scaling,
    )
    solver = OnlineMinCongestion(routing, config)
    solver.accept_all(sessions)
    return solver.solution(group_by_members=group_by_members)


@register_solver("randomized_rounding")
def solve_randomized_rounding_instance(
    sessions: Sequence[Session],
    routing: RoutingModel,
    max_trees: int = 1,
    seed: SeedLike = None,
    approximation_ratio: float = 0.95,
    epsilon: Optional[float] = None,
    prescale_epsilon: float = 0.1,
) -> FlowSolution:
    """Random-MinCongestion (paper Table V): round the fractional optimum.

    Solves the fractional MaxConcurrentFlow relaxation with the given
    accuracy parameters, then selects up to ``max_trees`` trees per
    session by flow-proportional sampling (seeded by ``seed``).
    """
    fractional = solve_max_concurrent_flow_instance(
        sessions,
        routing,
        approximation_ratio=approximation_ratio,
        epsilon=epsilon,
        prescale_epsilon=prescale_epsilon,
    )
    selection = RandomMinCongestion(fractional, seed=seed).select_trees(max_trees)
    return selection.solution


# Aliases used by the experiment sweeps ("maxflow"/"maxconcurrent" grids).
register_solver("maxflow", solve_max_flow_instance)
register_solver("maxconcurrent", solve_max_concurrent_flow_instance)
