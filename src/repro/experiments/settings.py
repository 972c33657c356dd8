"""Experiment settings at quick and paper scales.

Two experiment families appear in the paper:

* the **flat setting** of Sections III–V: a 100-node Waxman topology with
  uniform capacity 100 carrying two sessions of 7 and 5 members (demand
  100 each), solved for a sweep of approximation ratios;
* the **sweep setting** of Section VI: a two-level 10 AS x 100 router
  topology carrying ``n = 1..9`` sessions of average size 10..90 with
  unit demands.

"Quick" scale shrinks the topology, session sizes and ratio grids so that
every experiment finishes in seconds (suitable for the test and benchmark
suites); "paper" scale uses the paper's parameters.  Every reduction is
recorded in the scale presets below (``quick_*_setting`` and
``tiny_*_setting`` against ``paper_*_setting``).

A setting only describes its cells as declarative
:class:`~repro.api.specs.ScenarioSpec` objects; the live network,
sessions and routing of a cell come from
:func:`repro.api.service.build_instance` on its spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.api.specs import ArrivalSpec, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.util.errors import ConfigurationError
from repro.util.jobs import JOBS_ENV_VAR, configure_jobs
from repro.util.rng import spawn_child_seed

DEFAULT_SEED = 2004

# Experiment algorithm grid name -> (registry solver name, ratio param key).
_SOLVER_FOR_ALGORITHM = {
    "maxflow": "max_flow",
    "maxconcurrent": "max_concurrent_flow",
}


def solver_name_for_algorithm(algorithm: str) -> str:
    """Map a sweep-grid algorithm name to its registry solver name."""
    try:
        return _SOLVER_FOR_ALGORITHM[algorithm]
    except KeyError:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}") from None


def _solver_params(
    algorithm: str, ratio: float, prescale_epsilon: float
) -> Dict[str, Any]:
    """Solver params of one offline cell, shared by both setting families."""
    params: Dict[str, Any] = {"approximation_ratio": ratio}
    if algorithm == "maxconcurrent":
        params["prescale_epsilon"] = prescale_epsilon
    return params


@dataclass(frozen=True)
class FlatSetting:
    """The two-session flat-Waxman setting of Sections III–V.

    Attributes mirror the paper's experiment description; the session
    member sets are drawn from the topology with the given seed so that
    every experiment (and the IP-routing versus arbitrary-routing
    comparison) sees the same instance.
    """

    num_nodes: int = 100
    capacity: float = 100.0
    session_sizes: Tuple[int, ...] = (7, 5)
    demand: float = 100.0
    ratios: Tuple[float, ...] = (0.90, 0.92, 0.95)
    prescale_epsilon: float = 0.1
    seed: int = DEFAULT_SEED

    def topology_spec(self) -> TopologySpec:
        """Declarative spec of this setting's Waxman topology."""
        return TopologySpec(
            generator="paper_flat",
            params={"num_nodes": self.num_nodes, "capacity": self.capacity},
            seed=self.seed,
        )

    def workload_spec(self) -> WorkloadSpec:
        """Declarative spec of this setting's competing sessions."""
        return WorkloadSpec(
            sizes=self.session_sizes, demand=self.demand, seed=self.seed + 1
        )

    def scenario_spec(
        self, routing_kind: str, algorithm: str, ratio: float
    ) -> ScenarioSpec:
        """The complete declarative scenario of one flat sweep cell."""
        return ScenarioSpec(
            topology=self.topology_spec(),
            workload=self.workload_spec(),
            routing=routing_kind,
            solver=solver_name_for_algorithm(algorithm),
            solver_params=_solver_params(algorithm, ratio, self.prescale_epsilon),
        )

    def online_scenario_spec(
        self, routing_kind: str, sigma: float, arrivals: ArrivalSpec
    ) -> ScenarioSpec:
        """The declarative scenario of one online run over this setting.

        ``arrivals`` pins the replication and arrival order, so the spec
        fully determines the run; the limited-tree study derives the
        arrival seeds (see
        :func:`repro.experiments.runner.limited_tree_arrival_spec`).
        """
        return ScenarioSpec(
            topology=self.topology_spec(),
            workload=self.workload_spec(),
            routing=routing_kind,
            solver="online",
            solver_params={"sigma": sigma, "group_by_members": True},
            arrivals=arrivals,
        )


@dataclass(frozen=True)
class LimitedTreeSetting:
    """Parameters of the limited-tree experiments (Figs 5/6 and 10/11)."""

    tree_limits: Tuple[int, ...] = (1, 2, 4, 8, 12, 16, 20)
    sigmas: Tuple[float, ...] = (10.0, 30.0, 100.0)
    rounding_trials: int = 20
    online_orderings: int = 10
    fractional_ratio: float = 0.95
    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class SweepSetting:
    """The Section VI sweep: sessions x average session size grid."""

    num_ases: int = 10
    routers_per_as: int = 100
    capacity: float = 100.0
    session_counts: Tuple[int, ...] = (1, 3, 5, 7, 9)
    session_sizes: Tuple[int, ...] = (10, 30, 50, 70, 90)
    demand: float = 1.0
    ratio: float = 0.95
    prescale_epsilon: float = 0.1
    online_sigma: float = 10.0
    online_tree_limits: Tuple[int, ...] = (5, 60)
    seed: int = DEFAULT_SEED

    def topology_spec(self) -> TopologySpec:
        """Declarative spec of this setting's two-level AS/router topology."""
        return TopologySpec(
            generator="paper_two_level",
            params={
                "num_ases": self.num_ases,
                "routers_per_as": self.routers_per_as,
                "capacity": self.capacity,
            },
            seed=self.seed,
        )

    def workload_spec(self, count: int, size: int) -> WorkloadSpec:
        """Declarative spec of one grid point's random sessions."""
        return WorkloadSpec(
            sizes=(size,) * count,
            demand=self.demand,
            seed=self.seed + count * 1000 + size,
        )

    def grid_points(self) -> List[Tuple[int, int]]:
        """Every ``(session count, session size)`` cell, counts outermost."""
        return [
            (count, size)
            for count in self.session_counts
            for size in self.session_sizes
        ]

    def scenario_spec(self, count: int, size: int, algorithm: str) -> ScenarioSpec:
        """The complete declarative scenario of one Section VI grid cell."""
        return ScenarioSpec(
            topology=self.topology_spec(),
            workload=self.workload_spec(count, size),
            routing="ip",
            solver=solver_name_for_algorithm(algorithm),
            solver_params=_solver_params(algorithm, self.ratio, self.prescale_epsilon),
        )

    def online_scenario_spec(self, count: int, size: int, tree_limit: int) -> ScenarioSpec:
        """The declarative scenario of one Section VI *online* grid cell.

        Each session is replicated ``tree_limit`` times and the replica
        list is permuted with a seed from the setting's spawn tree —
        documented mapping: ``spawn_child_seed(setting.seed, tree_limit,
        count, size)`` (see :func:`repro.util.rng.spawn_child_seed`),
        which cannot collide across nearby grid points or tree limits
        the way the old additive ``seed + 37*count + size`` derivation
        could.  The spec fully determines the run, so online cells route
        through the report store exactly like offline cells.
        """
        return ScenarioSpec(
            topology=self.topology_spec(),
            workload=self.workload_spec(count, size),
            routing="ip",
            solver="online",
            solver_params={"sigma": self.online_sigma, "group_by_members": True},
            arrivals=ArrivalSpec(
                replication=tree_limit,
                seed=spawn_child_seed(self.seed, tree_limit, count, size),
            ),
        )


# ----------------------------------------------------------------------
# scale presets
# ----------------------------------------------------------------------
def paper_flat_setting() -> FlatSetting:
    """The paper's Sections III–V setting (100 nodes, sessions of 7 and 5).

    The ratio grid stops at 0.97: the 0.98/0.99 columns of the paper's
    tables need hundreds of thousands of MST operations, which is a
    multi-hour pure-Python run; the trend is already visible at 0.97.
    """
    return FlatSetting(
        num_nodes=100,
        session_sizes=(7, 5),
        ratios=(0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97),
    )


def quick_flat_setting() -> FlatSetting:
    """Seconds-scale version of the flat setting (benchmarks, CI)."""
    return FlatSetting(
        num_nodes=48,
        session_sizes=(6, 4),
        ratios=(0.85, 0.90),
        prescale_epsilon=0.15,
    )


def tiny_flat_setting() -> FlatSetting:
    """Sub-second flat setting used by the unit/integration test suite."""
    return FlatSetting(
        num_nodes=30,
        session_sizes=(4, 3),
        ratios=(0.80,),
        prescale_epsilon=0.2,
    )


def quick_limited_tree_setting() -> LimitedTreeSetting:
    """Seconds-scale limited-tree setting."""
    return LimitedTreeSetting(
        tree_limits=(1, 2, 4, 8, 12),
        sigmas=(10.0, 100.0),
        rounding_trials=10,
        online_orderings=5,
        fractional_ratio=0.88,
    )


def tiny_limited_tree_setting() -> LimitedTreeSetting:
    """Sub-second limited-tree setting used by the test suite."""
    return LimitedTreeSetting(
        tree_limits=(1, 2, 3),
        sigmas=(10.0,),
        rounding_trials=3,
        online_orderings=2,
        fractional_ratio=0.80,
    )


def paper_limited_tree_setting() -> LimitedTreeSetting:
    """The paper's limited-tree setting (tree limits 1..20, 100 trials)."""
    return LimitedTreeSetting(
        tree_limits=tuple(range(1, 21)),
        sigmas=(10.0, 20.0, 30.0, 40.0, 100.0, 200.0),
        rounding_trials=100,
        online_orderings=100,
        fractional_ratio=0.95,
    )


def quick_sweep_setting() -> SweepSetting:
    """Seconds-scale version of the Section VI sweep."""
    return SweepSetting(
        num_ases=3,
        routers_per_as=14,
        session_counts=(1, 2, 3),
        session_sizes=(4, 8, 12),
        ratio=0.85,
        prescale_epsilon=0.15,
        online_tree_limits=(2, 6),
    )


def tiny_sweep_setting() -> SweepSetting:
    """Sub-second Section VI sweep used by the test suite."""
    return SweepSetting(
        num_ases=2,
        routers_per_as=10,
        session_counts=(1, 2),
        session_sizes=(3, 4),
        ratio=0.80,
        prescale_epsilon=0.2,
        online_tree_limits=(1, 2),
    )


def paper_sweep_setting() -> SweepSetting:
    """The paper's Section VI sweep (10x100 topology, up to 9 sessions of 90)."""
    return SweepSetting()


#: Scale name -> its (flat, limited-tree, sweep) preset functions.
_SCALES = {
    "tiny": (tiny_flat_setting, tiny_limited_tree_setting, tiny_sweep_setting),
    "quick": (quick_flat_setting, quick_limited_tree_setting, quick_sweep_setting),
    "paper": (paper_flat_setting, paper_limited_tree_setting, paper_sweep_setting),
}


def _presets(scale: str) -> Tuple[Callable[[], Any], ...]:
    try:
        return _SCALES[scale]
    except KeyError:
        raise ConfigurationError(
            f"unknown scale {scale!r}; use 'tiny', 'quick' or 'paper'"
        ) from None


def flat_setting_for_scale(scale: str) -> FlatSetting:
    """Resolve a flat setting from a scale name (``tiny``/``quick``/``paper``)."""
    return _presets(scale)[0]()


def limited_tree_setting_for_scale(scale: str) -> LimitedTreeSetting:
    """Resolve a limited-tree setting from a scale name."""
    return _presets(scale)[1]()


def sweep_setting_for_scale(scale: str) -> SweepSetting:
    """Resolve a sweep setting from a scale name."""
    return _presets(scale)[2]()


def run_section_cli(
    description: str, experiments: Sequence[Callable[[str], Any]]
) -> None:
    """Command line of a ``repro.experiments.sectionN`` module.

    Parses the shared ``--scale`` / ``--jobs`` flags, installs ``--jobs``
    with :func:`configure_jobs`, then prints each of ``experiments``
    (functions of the scale) run at that scale, one blank line after each.
    """
    import argparse

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--scale",
        default="quick",
        choices=tuple(_SCALES),
        help="experiment scale preset (default: quick)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes of repro.api.solve_many's pool, which solves "
            f"every sweep (0 = all CPU cores; default: ${JOBS_ENV_VAR} or 1)"
        ),
    )
    args = parser.parse_args()
    if args.jobs is not None:
        configure_jobs(args.jobs)
    for experiment in experiments:
        print(experiment(args.scale))
        print()
