"""Name → implementation registry for topologies, routing models and solvers.

The registry is the single dispatch point between declarative
:class:`~repro.api.specs.ScenarioSpec` strings and live code.  Three
namespaces:

* **topologies** — ``name -> generator(**params) -> PhysicalNetwork``,
* **routings** — ``name -> factory(network) -> RoutingModel``,
* **solvers** — ``name -> fn(sessions, routing, **params) -> FlowSolution``.

The built-in solvers are the paper's four algorithms, each one function
in :mod:`repro.core` registered here directly, so a spec's
``solver_params`` are that function's keyword parameters.  All built-in
names are registered at import time; third-party code can plug in more
through the ``@register_solver("my_solver")`` / ``@register_topology`` /
``@register_routing`` decorators (open registration, duplicate names
rejected).  A name registered here is immediately addressable from
specs, the batch service, the serve layer and the ``python -m repro.api``
CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.maxconcurrent import max_concurrent_flow
from repro.core.maxflow import max_flow
from repro.core.online import online_min_congestion
from repro.core.result import FlowSolution
from repro.core.rounding import randomized_rounding
from repro.routing.base import RoutingModel
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.topology import generators as _topo
from repro.topology.barabasi import barabasi_albert_topology
from repro.topology.hierarchical import two_level_topology
from repro.topology.network import PhysicalNetwork
from repro.topology.waxman import waxman_topology
from repro.util.errors import ConfigurationError

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
# built-in solvers — the paper's four algorithms, plus the aliases the
# experiment sweeps use ("maxflow"/"maxconcurrent" grids)
# ----------------------------------------------------------------------
register_solver("max_flow", max_flow)
register_solver("max_concurrent_flow", max_concurrent_flow)
register_solver("online", online_min_congestion)
register_solver("randomized_rounding", randomized_rounding)
register_solver("maxflow", max_flow)
register_solver("maxconcurrent", max_concurrent_flow)
