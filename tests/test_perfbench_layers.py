"""The benchmark's traced runs can still wrap this source tree.

``perfbench/layers.py`` replaces named functions and methods across
``repro`` with timing wrappers whenever a benchmark runs with
``--trace 1``.  Untraced runs never import it, so a rename or deletion
under ``src/`` that it depends on would only surface in a traced run.
These tests install every wrapper in a fresh interpreter: one expects a
clean exit, the other solves tiny specs and expects every solver-path
layer to count calls, so code that stops calling a wrapped name (and
with it zeroes a layer in every traced run) fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import layers

tracer = layers.LayerTracer()
layers.install(tracer)
layers.install_http(tracer)
"""

SOLVE = (
    INSTALL
    + """
import json
from repro.api import ArrivalSpec, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.api import service

def spec(solver, routing="ip", params=None, arrivals=None):
    return ScenarioSpec(
        topology=TopologySpec("paper_flat", {"num_nodes": 16}, seed=3),
        workload=WorkloadSpec(sizes=(3, 3), seed=4),
        routing=routing,
        solver=solver,
        solver_params=params or {},
        arrivals=arrivals,
    )

for scenario in (
    spec("max_flow", params={"approximation_ratio": 0.5}),
    spec("max_concurrent_flow", params={"approximation_ratio": 0.5}),
    spec("online", params={"sigma": 10.0}, arrivals=ArrivalSpec(replication=3, seed=1)),
    spec("max_flow", routing="dynamic", params={"approximation_ratio": 0.5}),
):
    service.solve(scenario)
print(json.dumps({name: slot["calls"] for name, slot in tracer.totals().items()}))
"""
)

#: Every layer a fixed- and a dynamic-routing solve pass through.
SOLVER_PATH_LAYERS = (
    "api.build_instance",
    "core.solver",
    "topology.build",
    "engine.step",
    "engine.front",
    "overlay.oracle",
    "overlay.mst",
    "overlay.tree_build",
    "overlay.tree_length",
    "lengths.update",
    "routing.dijkstra",
    "routing.paths",
    "routing.pair_lengths",
)


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_perfbench_layer_wrappers_install():
    result = _run(INSTALL)
    assert result.returncode == 0, result.stderr


def test_traced_wrappers_see_the_solver_path():
    result = _run(SOLVE)
    assert result.returncode == 0, result.stderr
    calls = json.loads(result.stdout.strip().splitlines()[-1])
    missing = [name for name in SOLVER_PATH_LAYERS if not calls.get(name)]
    assert not missing, (missing, calls)
