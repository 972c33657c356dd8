"""Unicast routing substrate.

The paper's overlay model maps every overlay edge (a pair of session
members) onto a unicast route in the physical network:

* **Fixed IP routing** (Sections II-IV): the route between two end systems
  is the shortest path computed once over the physical topology (hop
  metric with deterministic tie-breaking), exactly like static
  shortest-path IP routing.
* **Arbitrary / dynamic routing** (Section V): the route may be any
  unicast path; the algorithms pick the shortest path under the *current*
  exponential length function each time the spanning-tree oracle runs.

Both are exposed behind the :class:`RoutingModel` interface so every
algorithm in :mod:`repro.core` can switch between them with a flag, which
is how the paper quantifies the impact of IP routing.  They are one
shortest-path computation under two weightings: both take their routes
from :class:`ShortestPathQuery`, the hop metric once for fixed routing
and the current lengths on every call for dynamic routing.
"""

from repro.routing.paths import UnicastPath
from repro.routing.shortest_path import ShortestPathQuery, shortest_path_tree
from repro.routing.base import RoutingModel, member_pairs
from repro.routing.ip_routing import FixedIPRouting
from repro.routing.dynamic import DynamicRouting

__all__ = [
    "UnicastPath",
    "ShortestPathQuery",
    "shortest_path_tree",
    "RoutingModel",
    "member_pairs",
    "FixedIPRouting",
    "DynamicRouting",
]
