"""repro.api — the canonical public surface of the library.

This package turns the paper's four algorithms into a *service*: problems
are named by declarative, JSON-round-trippable specs; implementations are
addressed through a string-keyed registry open to plugins; and solving —
single or batch, serial or multi-process — returns uniform, serializable
reports.

Layers
------
* :mod:`repro.api.specs` — :class:`TopologySpec`, :class:`WorkloadSpec`,
  :class:`SessionSpec`, :class:`ScenarioSpec`; every spec round-trips
  through JSON and exposes a ``canonical_key`` digest for caching.
* :mod:`repro.api.registry` — ``@register_topology`` /
  ``@register_routing`` / ``@register_solver`` decorators and the
  built-in names (the paper's four solver functions from
  :mod:`repro.core`, both routing models, all topology generators).
* :mod:`repro.api.service` — ``solve(spec) -> SolveReport``,
  ``solve_many(specs, jobs=...)`` (canonical-key deduplication + the
  library's one process pool, sized by ``--jobs`` / ``REPRO_JOBS``;
  every experiment sweep solves through it), ``build_instance`` (the
  one place specs become live networks, sessions and routing models)
  and ``solve_instance`` for callers that already hold live objects.
  Both entry points take ``store=`` (or honour ``REPRO_STORE``) and run
  one lookup chain per key: the :class:`repro.store.ReportStore`'s
  memory front, then its disk, then the solver, whose report is
  persisted — warm keys skip the solver entirely, across processes.
* ``python -m repro.api run spec.json [--jobs N] [--store DIR]
  [--output out.json]`` — the CLI over spec files, plus ``cache
  stats|prune`` for store maintenance.
* For multi-process scale-out over a shared filesystem, see
  :mod:`repro.cluster` (file-backed work queue + asyncio gathering).

Spec JSON shape
---------------
A scenario spec file is a JSON object (or a list of them for a batch)::

    {
      "topology": {
        "generator": "paper_flat",        // registry name; also:
                                          // paper_two_level, waxman,
                                          // barabasi_albert, two_level,
                                          // grid, ring, complete,
                                          // random_regular
        "params": {"num_nodes": 40, "capacity": 100.0},
        "seed": 7                         // null for unseeded generators
      },
      "workload": {                       // EITHER random mode:
        "sizes": [5, 4],                  //   one session per entry
        "demand": 100.0,
        "seed": 21,
        "spread_across_levels": true,
        "sessions": []                    // OR explicit mode: non-empty
                                          // list of {members, demand,
                                          // source, name} objects (and
                                          // sizes left empty)
      },
      "routing": "ip",                    // or "dynamic" (any case)
      "solver": "max_flow",               // or max_concurrent_flow,
                                          // online, randomized_rounding,
                                          // or a plugin name
      "solver_params": {"approximation_ratio": 0.9},
      "arrivals": {                       // optional (online scenarios):
        "replication": 5,                 //   copies per session
        "seed": 11,                       //   arrival-order permutation
        "demand": 1.0                     //   per-copy demand override
      }                                   // OR pin the order explicitly
                                          // (mutually exclusive with
                                          // seed): "order": [3, 0, ...]
                                          // Omit the key entirely for
                                          // offline scenarios
    }

Solver parameters are the keyword parameters of the registered solver
functions (:func:`repro.core.max_flow` and so on): ``max_flow`` takes
``approximation_ratio`` or ``epsilon`` (``epsilon`` wins when both are
given; plus ``max_iterations``); ``max_concurrent_flow`` adds
``prescale_epsilon``/``max_steps``; ``online``
(:func:`~repro.core.online_min_congestion`) takes ``sigma``,
``group_by_members`` and ``apply_no_bottleneck_scaling``;
``randomized_rounding`` takes ``max_trees`` and a required ``seed`` on
top of the fractional solve's accuracy parameters (a spec names one
report, so its rounding draw must be seeded).  The keys of retired
switches (:data:`repro.api.service.RETIRED_SOLVER_PARAMS`) are accepted
and ignored with a ``DeprecationWarning``, so stored specs still solve.

Quickstart
----------
>>> from repro.api import ScenarioSpec, TopologySpec, WorkloadSpec, solve
>>> spec = ScenarioSpec(
...     topology=TopologySpec("paper_flat", {"num_nodes": 40}, seed=7),
...     workload=WorkloadSpec(sizes=(4,), demand=100.0, seed=3),
...     solver="max_flow",
...     solver_params={"approximation_ratio": 0.9},
... )
>>> report = solve(ScenarioSpec.from_json(spec.to_json()))  # round-trips
>>> report.solution.overall_throughput > 0
True
"""

from repro.api.registry import (
    Registry,
    default_registry,
    register_routing,
    register_solver,
    register_topology,
)
from repro.api.service import (
    REPORT_SCHEMA,
    SolveReport,
    build_instance,
    clear_caches,
    solve,
    solve_instance,
    solve_many,
)
from repro.api.specs import (
    ArrivalSpec,
    ScenarioSpec,
    SessionSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "Registry",
    "default_registry",
    "register_topology",
    "register_routing",
    "register_solver",
    "TopologySpec",
    "SessionSpec",
    "WorkloadSpec",
    "ArrivalSpec",
    "ScenarioSpec",
    "SolveReport",
    "REPORT_SCHEMA",
    "build_instance",
    "solve",
    "solve_instance",
    "solve_many",
    "clear_caches",
]
