"""Scenario families, their committed reference pools, and per-seed plans.

A *family* is one shape of problem (topology size, session sizes, routing,
solver, accuracy).  ``make_reference.py`` expands each family into a pool
of concrete specs, solves every candidate once, keeps the ones whose step
count lies within the family's band around its median (so a new ``--seed``
changes the inputs but not the amount of work) and records, per spec, the exact LP
optimum where one exists, the objective, and the deterministic counts.
``reference.json`` is that record; a run draws its specs from it with the
run's seed, so the program only ever sees generated specs.

This module imports nothing from ``repro``: ``run.py`` plans a run from
the committed JSON alone.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


#: The solvers whose throughput the end-to-end metrics report, and the
#: metric each feeds.
SOLVER_METRIC = {
    "max_flow": "maxflow_per_s",
    "max_concurrent_flow": "concurrent_per_s",
    "online": "online_arrivals_per_s",
}


def _spec(
    nodes: int,
    topo_seed: int,
    sizes: List[int],
    work_seed: int,
    solver: str,
    params: Dict[str, Any],
    routing: str = "ip",
    arrivals: Dict[str, Any] = None,
) -> Dict[str, Any]:
    spec: Dict[str, Any] = {
        "topology": {
            "generator": "paper_flat",
            "params": {"num_nodes": nodes, "capacity": 100.0},
            "seed": topo_seed,
        },
        "workload": {"sizes": list(sizes), "demand": 100.0, "seed": work_seed},
        "routing": routing,
        "solver": solver,
        "solver_params": dict(params),
    }
    if arrivals is not None:
        spec["arrivals"] = dict(arrivals)
    return spec


LARGE_SIZES = [6, 5, 4] * 8  # 24 sessions of 4-6 members


def _family_specs(name: str, seed: int) -> Dict[str, Any]:
    """The candidate spec number ``seed`` of family ``name``."""
    if name == "ip_maxflow_quick":
        return _spec(48, 2004, [6, 4], seed, "max_flow", {"approximation_ratio": 0.9})
    if name == "ip_maxflow_large":
        return _spec(320, 2004, LARGE_SIZES, 2005, "max_flow", {"approximation_ratio": 0.5})
    if name == "ip_concurrent_quick":
        return _spec(
            48, 2004, [6, 4], seed, "max_concurrent_flow", {"approximation_ratio": 0.8}
        )
    if name == "ip_concurrent_mid":
        return _spec(
            100, 2004, [5, 4, 6, 4], seed, "max_concurrent_flow", {"approximation_ratio": 0.7}
        )
    if name == "ip_online_large":
        return _spec(
            320, 2004, LARGE_SIZES, 2005, "online", {"sigma": 10.0},
            arrivals={"replication": 100, "seed": seed},
        )
    if name == "dyn_maxflow_quick":
        return _spec(
            24, 2004, [4, 3], seed, "max_flow", {"approximation_ratio": 0.8}, routing="dynamic"
        )
    if name == "dyn_concurrent_quick":
        return _spec(
            24, 2004, [4, 3], seed, "max_concurrent_flow", {"approximation_ratio": 0.6},
            routing="dynamic",
        )
    if name == "dyn_online_large":
        return _spec(
            320, 2004, LARGE_SIZES, 2005, "online", {"sigma": 10.0}, routing="dynamic",
            arrivals={"replication": 24, "seed": seed},
        )
    # The serve/cluster mix: small 24-node specs, each on its own topology.
    if name in ("cold_maxflow_ip", "warm_maxflow_ip"):
        return _spec(24, seed, [4, 3], seed, "max_flow", {"approximation_ratio": 0.8})
    if name == "cold_maxflow_dyn":
        return _spec(
            24, seed, [4, 3], seed, "max_flow", {"approximation_ratio": 0.6}, routing="dynamic"
        )
    if name in ("cold_concurrent_ip", "warm_concurrent_ip"):
        return _spec(
            24, seed, [4, 3], seed, "max_concurrent_flow", {"approximation_ratio": 0.7}
        )
    if name == "cold_online_ip":
        # Enough arrivals that one solve outlasts the interpreter's
        # 5 ms thread switch interval many times over.
        return _spec(
            24, seed, [4, 3, 5], seed, "online", {"sigma": 10.0},
            arrivals={"replication": 150, "seed": seed},
        )
    if name == "warm_online_ip":
        return _spec(
            24, seed, [4, 3, 5], seed, "online", {"sigma": 10.0},
            arrivals={"replication": 20, "seed": seed},
        )
    if name in ("cold_rounding_ip", "warm_rounding_ip"):
        return _spec(
            24, seed, [4, 3], seed, "randomized_rounding",
            {"approximation_ratio": 0.7, "max_trees": 2, "seed": seed},
        )
    raise KeyError(name)


#: family -> (first candidate seed, candidates tried, pool size kept, band).
#: A pool keeps the candidates whose step count lies nearest the family
#: median, all within ``band`` (relative) of it, so that the seed changes
#: the inputs but barely the amount of work.  A family a pass draws one
#: spec from keeps a single spec: equal step counts do not make equal
#: work (the arrival order of an online run changes its cost by ~10%),
#: and one draw per run would put that difference into every figure.
FAMILIES: Dict[str, tuple] = {
    "ip_maxflow_quick": (3000, 24, 8, 0.08),
    "ip_maxflow_large": (0, 1, 1, 1.0),
    "ip_concurrent_quick": (3100, 24, 1, 0.05),
    "ip_concurrent_mid": (3200, 20, 1, 0.05),
    "ip_online_large": (3300, 12, 1, 0.0),
    "dyn_maxflow_quick": (3400, 30, 5, 0.08),
    "dyn_concurrent_quick": (3500, 24, 1, 0.05),
    "dyn_online_large": (3600, 12, 1, 0.0),
    # A cluster batch takes every cold spec and a serve run all but one
    # per family: the seed sets their order and schedule, not their work.
    "cold_maxflow_ip": (4000, 24, 8, 0.15),
    "cold_maxflow_dyn": (4100, 24, 8, 0.15),
    "cold_concurrent_ip": (4200, 24, 8, 0.15),
    "cold_online_ip": (4300, 8, 8, 0.0),
    "cold_rounding_ip": (4400, 24, 8, 0.15),
    "warm_maxflow_ip": (5000, 60, 40, 0.25),
    "warm_concurrent_ip": (5100, 60, 40, 0.25),
    "warm_online_ip": (5200, 50, 40, 0.25),
    "warm_rounding_ip": (5300, 60, 40, 0.25),
}

#: How many specs of each family one pass of a solve workload runs.
SOLVE_PASSES = {
    "solve_ip": {
        "ip_maxflow_quick": 2,
        "ip_maxflow_large": 1,
        "ip_concurrent_quick": 1,
        "ip_concurrent_mid": 1,
        "ip_online_large": 3,
    },
    "solve_dynamic": {
        "dyn_maxflow_quick": 2,
        "dyn_concurrent_quick": 1,
        "dyn_online_large": 3,
    },
}

COLD_FAMILIES = [
    "cold_maxflow_ip",
    "cold_maxflow_dyn",
    "cold_concurrent_ip",
    "cold_online_ip",
    "cold_rounding_ip",
]
WARM_FAMILIES = [
    "warm_maxflow_ip",
    "warm_concurrent_ip",
    "warm_online_ip",
    "warm_rounding_ip",
]


def family_candidates(name: str) -> List[Dict[str, Any]]:
    first, tried = FAMILIES[name][:2]
    return [_family_specs(name, first + i) for i in range(tried)]


def load_reference() -> Dict[str, Any]:
    with REFERENCE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)


def pool(reference: Dict[str, Any], family: str) -> List[Dict[str, Any]]:
    return reference["families"][family]


def solve_plan(reference: Dict[str, Any], workload: str, seed: int) -> List[Dict[str, Any]]:
    """One pass of a solve workload: the seed picks each family's members.

    A single-spec family is solved ``count`` times per pass: an online
    solve is short, and a run needs several of them for a steady median.
    """
    rng = random.Random(f"{workload}:{seed}")
    entries: List[Dict[str, Any]] = []
    for family, count in SOLVE_PASSES[workload].items():
        members = pool(reference, family)
        entries.extend(members * count if len(members) == 1 else rng.sample(members, count))
    rng.shuffle(entries)
    return entries


def cold_batch(reference: Dict[str, Any], seed: int, per_family: int, tag: str) -> List[Dict[str, Any]]:
    """Distinct cold specs, the same number from every family, seeded order."""
    rng = random.Random(f"{tag}:{seed}")
    entries: List[Dict[str, Any]] = []
    for family in COLD_FAMILIES:
        entries.extend(
            dict(entry, family=family) for entry in rng.sample(pool(reference, family), per_family)
        )
    rng.shuffle(entries)
    return entries


def warm_set(reference: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [entry for family in WARM_FAMILIES for entry in pool(reference, family)]
