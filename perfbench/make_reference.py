"""Build ``reference.json``: the benchmark's spec pools and their ground truth.

Run once from the repository root (takes a few minutes on two cores)::

    PYTHONPATH=src python3 perfbench/make_reference.py

For every family in :data:`scenarios.FAMILIES` it solves each candidate
spec cold, keeps the pool members whose step count lies within the
family's band around the family median, and records per spec:

* ``lp`` — the exact optimum of the fixed-route LP from
  :mod:`repro.lp.exact`, for ``max_flow`` / ``max_concurrent_flow`` specs
  whose sessions have at most six members (a lower bound under dynamic
  routing);
* ``objective`` — the solver's objective on the commit that built the
  file (online: max congestion);
* ``counts`` — the report's deterministic work counts.

The file is committed, so runs never recompute it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from statistics import median

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import procs  # noqa: E402
import scenarios  # noqa: E402
from repro.api import ScenarioSpec  # noqa: E402
from repro.api.registry import default_registry  # noqa: E402
from repro.api.service import build_instance, clear_caches, solve  # noqa: E402
from repro.lp.exact import (  # noqa: E402
    enumerate_session_trees,
    exact_max_concurrent_flow,
    exact_max_flow,
)
from repro.obs.metrics import registry  # noqa: E402

#: Above this many tree variables the LP is assembled sparse.
DENSE_LP_LIMIT = 2000


def _sparse_lp(sessions, routing, concurrent: bool) -> float:
    """The same LP as :mod:`repro.lp.exact`, with a sparse constraint matrix."""
    network = routing.network
    usages = [enumerate_session_trees(s, routing)[1] for s in sessions]
    max_size = max(s.size for s in sessions)
    blocks = [sparse.csr_matrix(u) for u in usages]
    tree_matrix = sparse.vstack(blocks).T.tocsr()  # edges x tree variables
    num_trees = tree_matrix.shape[1]
    if not concurrent:
        c = np.concatenate(
            [np.full(u.shape[0], -(s.size - 1) / (max_size - 1)) for s, u in zip(sessions, usages)]
        )
        result = linprog(c, A_ub=tree_matrix, b_ub=network.capacities, bounds=(0, None), method="highs")
        return float(-result.fun)
    c = np.zeros(num_trees + 1)
    c[-1] = -1.0
    cap = sparse.hstack([tree_matrix, sparse.csr_matrix((network.num_edges, 1))])
    rows = []
    offset = 0
    for s, u in zip(sessions, usages):
        row = np.zeros(num_trees + 1)
        row[offset : offset + u.shape[0]] = -1.0
        row[-1] = s.demand
        rows.append(row)
        offset += u.shape[0]
    a_ub = sparse.vstack([cap, sparse.csr_matrix(np.array(rows))]).tocsr()
    b_ub = np.concatenate([network.capacities, np.zeros(len(sessions))])
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    return float(-result.fun)


def exact_lp(spec: ScenarioSpec):
    """Fixed-route LP optimum of a max_flow / max_concurrent_flow spec, or None."""
    if spec.solver not in ("max_flow", "max_concurrent_flow"):
        return None
    network, sessions, _ = build_instance(spec)
    if max(s.size for s in sessions) > 6:
        return None
    routing = default_registry().build_routing(network, "ip")
    concurrent = spec.solver == "max_concurrent_flow"
    trees = sum(s.size ** (s.size - 2) for s in sessions)
    if trees > DENSE_LP_LIMIT:
        return _sparse_lp(sessions, routing, concurrent)
    exact = exact_max_concurrent_flow if concurrent else exact_max_flow
    return float(exact(sessions, routing).objective)


def _engine_steps() -> int:
    return int(registry().counter("repro_engine_steps_total").value)


def _record(spec_json):
    spec = ScenarioSpec.from_jsonable(spec_json)
    clear_caches()
    steps_before = _engine_steps()
    started = time.perf_counter()
    report = solve(spec)
    wall = time.perf_counter() - started
    engine_steps = _engine_steps() - steps_before
    entry = {
        "key": spec.canonical_key,
        "spec": spec.to_jsonable(),
        "objective": checks.objective(report.solution),
        "counts": checks.counts(report),
        "wall_s": round(wall, 4),
    }
    if report.solution.instrumentation is None:
        # Reports without engine telemetry (rounding selections) still ran
        # the engine; the metrics registry is the only record of its steps.
        entry["engine_steps"] = engine_steps
    if spec.solver == "online":
        _, sessions, _ = build_instance(spec)
        arrivals = spec.arrivals.apply(sessions) if spec.arrivals else sessions
        entry["arrivals"] = float(len(arrivals))
        entry["demand_total"] = float(sum(s.demand for s in arrivals))
    lp = exact_lp(spec)
    if lp is not None:
        entry["lp"] = lp
    ok, reason = checks.check(entry, report)
    if not ok:
        raise SystemExit(f"reference solve fails its own check: {reason}")
    return entry


def build_family(name: str):
    """The ``keep`` candidates whose step count lies nearest the family median."""
    entries = [_record(spec) for spec in scenarios.family_candidates(name)]
    keep, band = scenarios.FAMILIES[name][2:]
    mid = median(e["counts"]["steps"] for e in entries)
    ranked = sorted(entries, key=lambda e: abs(e["counts"]["steps"] - mid))[:keep]
    worst = max(abs(e["counts"]["steps"] - mid) for e in ranked) / max(mid, 1)
    if worst > band:
        steps = sorted(e["counts"]["steps"] for e in entries)
        raise SystemExit(f"{name}: {keep} nearest reach {worst:.3f} > {band}: {steps}")
    return sorted(ranked, key=lambda e: e["key"])


def main() -> int:
    for var in procs.SCRUBBED_ENV:
        os.environ.pop(var, None)
    families = {}
    for name in scenarios.FAMILIES:
        started = time.perf_counter()
        families[name] = build_family(name)
        walls = [e["wall_s"] for e in families[name]]
        print(
            f"{name:22s} {len(walls):3d} specs  wall mean {sum(walls) / len(walls):.3f}s "
            f"max {max(walls):.3f}s  ({time.perf_counter() - started:.1f}s)",
            flush=True,
        )
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    ).stdout.strip()
    payload = {"schema": "perfbench-reference/v1", "commit": commit, "families": families}
    with scenarios.REFERENCE_PATH.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
