"""repro — reproduction of Cui, Li & Nahrstedt (SPAA 2004).

"On Achieving Optimized Capacity Utilization in Application Overlay
Networks with Multiple Competing Sessions."

The package models multi-tree overlay multicast with multiple competing
sessions as a multicommodity flow over overlay spanning trees and provides

* the **MaxFlow** and **MaxConcurrentFlow** FPTAS solvers (throughput
  maximisation and weighted max-min fairness),
* the **Random-MinCongestion** and **Online-MinCongestion** practical
  algorithms for the tree-limited (unsplittable) setting,
* both **fixed IP routing** and **arbitrary dynamic routing** overlay
  models,
* the topology, routing, and metrics substrates the paper's evaluation
  depends on,
* an experiment harness that regenerates every table and figure of the
  paper's evaluation section, and
* the **Scenario API** (:mod:`repro.api`) — declarative JSON specs, a
  solver/routing/topology registry open to plugins, and a cached,
  process-parallel batch solve service with a ``python -m repro.api``
  CLI.  New code should start there.
* the **persistent report store** (:mod:`repro.store`) — a
  content-addressed on-disk cache keyed on spec ``canonical_key``s, so
  solved scenarios survive across processes (``REPRO_STORE`` /
  ``store=``), and
* the **cluster layer** (:mod:`repro.cluster`) — canonical-key
  sharding, a crash-safe file-backed work queue drained by independent
  ``python -m repro.cluster worker`` processes, and an asyncio front
  end streaming reports as they complete.

Quickstart
----------
>>> from repro.api import ScenarioSpec, TopologySpec, WorkloadSpec, solve
>>> spec = ScenarioSpec(
...     topology=TopologySpec("paper_flat", {"num_nodes": 40}, seed=7),
...     workload=WorkloadSpec(sizes=(4,), demand=100.0, seed=3),
...     solver="max_flow",
...     solver_params={"approximation_ratio": 0.9},
... )
>>> solve(spec).solution.overall_throughput > 0
True
"""

from repro.topology import (
    PhysicalNetwork,
    waxman_topology,
    barabasi_albert_topology,
    two_level_topology,
    paper_flat_topology,
    paper_two_level_topology,
    grid_topology,
    ring_topology,
    complete_topology,
)
from repro.routing import FixedIPRouting, DynamicRouting, UnicastPath
from repro.overlay import (
    Session,
    OverlayTree,
    MinimumOverlayTreeOracle,
    random_session,
)
from repro.core import (
    MaxFlow,
    MaxFlowConfig,
    MaxConcurrentFlow,
    MaxConcurrentFlowConfig,
    OnlineMinCongestion,
    OnlineConfig,
    RandomMinCongestion,
    FlowSolution,
    SessionResult,
    TreeFlow,
    LengthFunction,
)
from repro.api import (
    Registry,
    ScenarioSpec,
    SessionSpec,
    SolveReport,
    TopologySpec,
    WorkloadSpec,
    default_registry,
    register_routing,
    register_solver,
    register_topology,
    solve,
    solve_instance,
    solve_many,
)

__version__ = "1.1.0"

__all__ = [
    "PhysicalNetwork",
    "waxman_topology",
    "barabasi_albert_topology",
    "two_level_topology",
    "paper_flat_topology",
    "paper_two_level_topology",
    "grid_topology",
    "ring_topology",
    "complete_topology",
    "FixedIPRouting",
    "DynamicRouting",
    "UnicastPath",
    "Session",
    "OverlayTree",
    "MinimumOverlayTreeOracle",
    "random_session",
    "MaxFlow",
    "MaxFlowConfig",
    "MaxConcurrentFlow",
    "MaxConcurrentFlowConfig",
    "OnlineMinCongestion",
    "OnlineConfig",
    "RandomMinCongestion",
    "FlowSolution",
    "SessionResult",
    "TreeFlow",
    "LengthFunction",
    "Registry",
    "default_registry",
    "register_topology",
    "register_routing",
    "register_solver",
    "TopologySpec",
    "SessionSpec",
    "WorkloadSpec",
    "ScenarioSpec",
    "SolveReport",
    "solve",
    "solve_instance",
    "solve_many",
    "__version__",
]
