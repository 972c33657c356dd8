"""Shared experiment execution with in-process caching.

Several figures are different views of the same underlying runs (e.g.
Table II, Fig 2 and Fig 4 all read the MaxFlow ratio sweep; Figs 12–19
all read the Section VI sweep), and studies share cells (the dynamic
limited-tree study's fractional reference is a flat MaxConcurrentFlow
cell).  This module keeps every solution it solves in one cache keyed on
the cell spec's canonical key, so generating every figure solves each
distinct cell once per process.  The limited-tree studies are cached
too, because they also hold the randomized-rounding averages.

Every sweep is a grid of mutually independent cells (one ratio, one
(session count, session size) point, one tree-limit ordering), and every
cell is a declarative :class:`~repro.api.specs.ScenarioSpec` — online
cells included, since the arrival process is a spec field
(:class:`repro.api.specs.ArrivalSpec`).  So each sweep's unsolved cells
are exactly one ``repro.api.solve_many(specs, jobs=jobs, store=store)``
call: the flat ratio sweeps, the Section VI grid, its online sweep, and
the limited-tree study's fractional reference plus online orderings.
``solve_many`` owns the process pool (``jobs=``, ``REPRO_JOBS`` or the
section CLIs' ``--jobs``; parallel runs are bit-identical to serial
ones) and, with a persistent :class:`repro.store.ReportStore` — pass
``store=`` or export ``REPRO_STORE`` — a re-run of a sweep in a fresh
process performs zero solver calls.  Only the randomized-rounding trials
(which resample a live fractional solution) always compute, in a plain
loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import service
from repro.api.specs import ArrivalSpec, ScenarioSpec
from repro.core.result import FlowSolution
from repro.core.rounding import RandomMinCongestion
from repro.experiments.settings import (
    LimitedTreeSetting,
    flat_setting_for_scale,
    limited_tree_setting_for_scale,
    sweep_setting_for_scale,
)
from repro.overlay.session import Session
from repro.store.report_store import StoreLike
from repro.util.errors import ConfigurationError
from repro.util.rng import spawn_child_seed


#: Canonical key -> solution of every cell solved in this process.
_SOLUTIONS: Dict[str, FlowSolution] = {}
_LIMITED_TREE_STUDIES: Dict[Tuple[str, str], "LimitedTreeStudy"] = {}


def clear_caches() -> None:
    """Drop every cached solution and study, and the API's instance cache."""
    _SOLUTIONS.clear()
    _LIMITED_TREE_STUDIES.clear()
    service.clear_caches()


def _solve_specs(
    specs: Sequence[ScenarioSpec], jobs: Optional[int], store: StoreLike
) -> List[FlowSolution]:
    """Solve one sweep's cells, in order: the unsolved ones in one batch."""
    unsolved = [spec for spec in specs if spec.canonical_key not in _SOLUTIONS]
    for report in service.solve_many(unsolved, jobs=jobs, store=store):
        _SOLUTIONS[report.canonical_key] = report.solution
    return [_SOLUTIONS[spec.canonical_key] for spec in specs]


# ----------------------------------------------------------------------
# flat (Sections III–V) runs
# ----------------------------------------------------------------------
def flat_scenario_spec(
    scale: str, routing_kind: str, algorithm: str, ratio: float
) -> ScenarioSpec:
    """Declarative spec of one flat sweep cell (provenance / remote submission).

    ``repro.api.solve`` on this spec reproduces the corresponding
    :func:`flat_ratio_sweep` cell bit-identically; ``build_instance`` on
    it gives the cell's network, sessions and routing.
    """
    return flat_setting_for_scale(scale).scenario_spec(routing_kind, algorithm, ratio)


def flat_ratio_sweep(
    scale: str,
    routing_kind: str,
    algorithm: str,
    jobs: Optional[int] = None,
    store: StoreLike = None,
) -> Dict[float, FlowSolution]:
    """Solve the flat instance for every approximation ratio of the setting.

    ``algorithm`` is ``"maxflow"`` or ``"maxconcurrent"``.  Cells are
    cached per canonical key; ``jobs`` controls how many unsolved ratio
    cells solve concurrently.  With a persistent store (``store=`` or
    ``REPRO_STORE``), re-runs come back without solver work.
    """
    ratios = flat_setting_for_scale(scale).ratios
    specs = [
        flat_scenario_spec(scale, routing_kind, algorithm, ratio) for ratio in ratios
    ]
    return dict(zip(ratios, _solve_specs(specs, jobs, store)))


# ----------------------------------------------------------------------
# limited-tree (Section IV / Figs 5-6, 10-11) studies
# ----------------------------------------------------------------------
@dataclass
class LimitedTreePoint:
    """Measurements at one tree-limit value."""

    tree_limit: int
    random_throughput: float
    random_min_rate: float
    random_session_rates: List[float]
    random_trees_used: List[float]
    online_throughput: Dict[float, float]
    online_min_rate: Dict[float, float]
    online_session_rates: Dict[float, List[float]]
    online_trees_used: Dict[float, List[float]]


@dataclass
class LimitedTreeStudy:
    """Full output of the limited-tree experiment (one per routing kind)."""

    setting: LimitedTreeSetting
    fractional: FlowSolution
    points: List[LimitedTreePoint]

    def series(self, field: str, sigma: Optional[float] = None) -> List[float]:
        """Extract a per-tree-limit series by field name (for figures)."""
        out = []
        for p in self.points:
            value = getattr(p, field)
            if isinstance(value, dict):
                if sigma is None:
                    raise ConfigurationError(f"field {field!r} needs a sigma")
                value = value[sigma]
            out.append(value)
        return out


def _rounding_point(
    setting: LimitedTreeSetting, fractional: FlowSolution, limit: int
) -> Dict[str, float]:
    """Randomized rounding at one tree-limit value, averaged over trials.

    Seeded from ``setting.seed + limit`` (unchanged from the original
    harness — the rounding averages are a different random process from
    the arrival orderings, which now draw from the setting's spawn tree
    and therefore can no longer collide with these roots).
    """
    rounding = RandomMinCongestion(fractional, seed=setting.seed)
    return rounding.average_over_trials(
        limit, setting.rounding_trials, seed=setting.seed + limit
    )


def limited_tree_arrival_spec(
    setting: LimitedTreeSetting, tree_limit: int, ordering: int
) -> ArrivalSpec:
    """The arrival process of one limited-tree online ordering.

    Documented seed mapping (the reproducibility contract): ordering
    ``j`` at tree limit ``l`` permutes with
    ``spawn_child_seed(setting.seed, l, j)`` — a two-level
    ``SeedSequence`` spawn tree (:func:`repro.util.rng.spawn_child_seed`)
    that, unlike the old additive ``setting.seed + l`` roots, cannot
    collide across nearby limits or with the rounding-trial seeds.
    Orderings are shared across sigmas, as in the original harness.
    """
    return ArrivalSpec(
        replication=tree_limit,
        seed=spawn_child_seed(setting.seed, tree_limit, ordering),
        demand=1.0,
    )


def limited_tree_online_spec(
    scale: str, routing_kind: str, tree_limit: int, sigma: float, ordering: int
) -> ScenarioSpec:
    """Declarative spec of one limited-tree online ordering cell.

    ``repro.api.solve`` on this spec reproduces the corresponding
    :func:`limited_tree_study` online sample bit-identically — which is
    what lets the study route its online cells through ``solve_many``
    and the persistent report store.
    """
    setting = limited_tree_setting_for_scale(scale)
    return flat_setting_for_scale(scale).online_scenario_spec(
        routing_kind, sigma, limited_tree_arrival_spec(setting, tree_limit, ordering)
    )


def _assemble_online_point(
    base_sessions: Sequence[Session],
    solutions: Sequence[FlowSolution],
) -> Tuple[float, float, List[float], List[float]]:
    """Average one (limit, sigma) cell's ordering solutions.

    Returns (mean throughput, mean min rate, per-session mean rates,
    per-session mean tree counts), with grouped results aligned back to
    the original session order.
    """
    num_sessions = len(base_sessions)
    throughputs = []
    min_rates = []
    rates_acc = np.zeros(num_sessions)
    trees_acc = np.zeros(num_sessions)
    for solution in solutions:
        throughputs.append(solution.overall_throughput)
        min_rates.append(solution.min_rate)
        by_members = {
            tuple(sorted(s.session.members)): s for s in solution.sessions
        }
        for index, session in enumerate(base_sessions):
            grouped = by_members[tuple(sorted(session.members))]
            rates_acc[index] += grouped.rate
            trees_acc[index] += grouped.num_trees
    count = float(len(solutions))
    return (
        float(np.mean(throughputs)),
        float(np.mean(min_rates)),
        list(rates_acc / count),
        list(trees_acc / count),
    )


def fractional_scenario_spec(scale: str, routing_kind: str) -> ScenarioSpec:
    """Declarative spec of the limited-tree study's fractional reference."""
    setting = limited_tree_setting_for_scale(scale)
    return flat_setting_for_scale(scale).scenario_spec(
        routing_kind, "maxconcurrent", setting.fractional_ratio
    )


def limited_tree_study(
    scale: str,
    routing_kind: str = "ip",
    jobs: Optional[int] = None,
    store: StoreLike = None,
) -> LimitedTreeStudy:
    """Run (or fetch) the Random/Online versus tree-limit study.

    The fractional reference and every online ordering cell this process
    has not solved yet solve as one ``repro.api.solve_many`` batch (the
    dynamic study's reference is a flat MaxConcurrentFlow cell, so a
    flat sweep may already hold it) — with a persistent store
    (``store=`` or ``REPRO_STORE``) a re-run of the study performs zero
    solver calls.  The rounding trials resample the live fractional
    solution, so they always compute, serially (they take milliseconds).
    """
    key = (scale, routing_kind)
    if key in _LIMITED_TREE_STUDIES:
        return _LIMITED_TREE_STUDIES[key]

    setting = limited_tree_setting_for_scale(scale)
    fractional_spec = fractional_scenario_spec(scale, routing_kind)
    # One spec per (limit, sigma, ordering) behind the fractional one:
    # the whole study is a flat batch, so the service deduplicates,
    # parallelises and (with a store) persists it like any other sweep.
    cells = [
        (limit, sigma, ordering)
        for limit in setting.tree_limits
        for sigma in setting.sigmas
        for ordering in range(setting.online_orderings)
    ]
    specs = [fractional_spec] + [
        limited_tree_online_spec(scale, routing_kind, limit, sigma, ordering)
        for limit, sigma, ordering in cells
    ]
    fractional, *online = _solve_specs(specs, jobs, store)
    solutions_by_cell = dict(zip(cells, online))
    _, base_sessions, _ = service.build_instance(fractional_spec)
    num_sessions = len(base_sessions)
    rounding_stats = [
        _rounding_point(setting, fractional, limit) for limit in setting.tree_limits
    ]

    points = []
    for limit, random_stats in zip(setting.tree_limits, rounding_stats):
        online_throughput: Dict[float, float] = {}
        online_min_rate: Dict[float, float] = {}
        online_rates: Dict[float, List[float]] = {}
        online_trees: Dict[float, List[float]] = {}
        for sigma in setting.sigmas:
            samples = [
                solutions_by_cell[(limit, sigma, ordering)]
                for ordering in range(setting.online_orderings)
            ]
            (
                online_throughput[sigma],
                online_min_rate[sigma],
                online_rates[sigma],
                online_trees[sigma],
            ) = _assemble_online_point(base_sessions, samples)
        points.append(
            LimitedTreePoint(
                tree_limit=limit,
                random_throughput=random_stats["mean_throughput"],
                random_min_rate=random_stats["mean_min_rate"],
                random_session_rates=[
                    random_stats[f"mean_rate_session_{i + 1}"]
                    for i in range(num_sessions)
                ],
                random_trees_used=[
                    random_stats[f"mean_trees_session_{i + 1}"]
                    for i in range(num_sessions)
                ],
                online_throughput=online_throughput,
                online_min_rate=online_min_rate,
                online_session_rates=online_rates,
                online_trees_used=online_trees,
            )
        )

    study = LimitedTreeStudy(setting=setting, fractional=fractional, points=points)
    _LIMITED_TREE_STUDIES[key] = study
    return study


# ----------------------------------------------------------------------
# Section VI sweep runs
# ----------------------------------------------------------------------
def sweep_scenario_spec(scale: str, algorithm: str, count: int, size: int) -> ScenarioSpec:
    """Declarative spec of one Section VI grid cell.

    ``repro.api.solve`` on this spec reproduces the corresponding
    :func:`sweep_runs` cell bit-identically; ``build_instance`` on it
    gives the cell's network, sessions and routing.
    """
    return sweep_setting_for_scale(scale).scenario_spec(count, size, algorithm)


def sweep_runs(
    scale: str,
    algorithm: str,
    jobs: Optional[int] = None,
    store: StoreLike = None,
) -> Dict[Tuple[int, int], FlowSolution]:
    """MaxFlow or MaxConcurrentFlow over the whole (sessions x size) grid.

    With a persistent store (``store=`` or ``REPRO_STORE``), sweep
    re-runs skip solved cells.
    """
    grid_points = sweep_setting_for_scale(scale).grid_points()
    specs = [
        sweep_scenario_spec(scale, algorithm, count, size)
        for count, size in grid_points
    ]
    return dict(zip(grid_points, _solve_specs(specs, jobs, store)))


def online_scenario_spec(
    scale: str, tree_limit: int, count: int, size: int
) -> ScenarioSpec:
    """Declarative spec of one Section VI online grid cell.

    ``repro.api.solve`` on this spec reproduces the corresponding
    :func:`online_sweep_runs` cell bit-identically.
    """
    return sweep_setting_for_scale(scale).online_scenario_spec(count, size, tree_limit)


def online_sweep_runs(
    scale: str,
    tree_limit: int,
    jobs: Optional[int] = None,
    store: StoreLike = None,
) -> Dict[Tuple[int, int], FlowSolution]:
    """Online algorithm over the grid with each session replicated ``tree_limit`` times.

    With a persistent store (``store=`` or ``REPRO_STORE``), a warm
    re-run of the online sweep performs zero solver calls, exactly like
    the offline sweeps.
    """
    grid_points = sweep_setting_for_scale(scale).grid_points()
    specs = [
        online_scenario_spec(scale, tree_limit, count, size)
        for count, size in grid_points
    ]
    return dict(zip(grid_points, _solve_specs(specs, jobs, store)))
