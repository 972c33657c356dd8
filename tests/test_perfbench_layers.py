"""The benchmark's traced runs can still wrap this source tree.

``perfbench/layers.py`` replaces named functions and methods across
``repro`` with timing wrappers whenever a benchmark runs with
``--trace 1``.  Untraced runs never import it, so a rename or deletion
under ``src/`` that it depends on would only surface in a traced run.
These tests install every wrapper in a fresh interpreter: one expects a
clean exit, one solves tiny specs and expects every solver-path layer to
count calls, so code that stops calling a wrapped name (and with it
zeroes a layer in every traced run) fails here, and one reads a stored
report back through a fresh store and the serve app and submits a cold
spec to one inline worker, so a signature the store, admission and serve
wrappers rely on cannot drift unnoticed.
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

SERVE = (
    INSTALL
    + """
import json, sys, time
from repro.api import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.api import service
from repro.serve import ServeApp, ServeConfig
from repro.store import ReportStore

root = sys.argv[1]

def spec(seed):
    return ScenarioSpec(
        topology=TopologySpec("paper_flat", {"num_nodes": 12}, seed=3),
        workload=WorkloadSpec(sizes=(3,), seed=seed),
        solver="max_flow",
        solver_params={"approximation_ratio": 0.5},
    )

def calls():
    return {name: slot["calls"] for name, slot in tracer.totals().items()}

stored, cold = spec(4), spec(5)
ReportStore(root, durable=False).put(service.solve(stored))
assert ReportStore(root).get(stored.canonical_key) is not None
app = ServeApp(ServeConfig(store=root, inline_workers=1))
try:
    code, body = app.report(stored.canonical_key)
    assert code == 200 and json.loads(body)["canonical_key"] == stored.canonical_key
    read = calls()
    code, ticket = app.submit(json.dumps(cold.to_jsonable()).encode())
    assert code == 202, ticket
    deadline = time.monotonic() + 60
    while app.report(cold.canonical_key)[0] != 200:
        assert time.monotonic() < deadline, "the cold submit never landed"
        time.sleep(0.01)
finally:
    app.close()
samples = {name: len(values) for name, values in tracer.samples.items()}
print(json.dumps({"read": read, "submitted": calls(), "samples": samples}))
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


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return subprocess.run(
        [sys.executable, "-c", script, *args],
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


def test_traced_wrappers_see_the_serve_path(tmp_path):
    # A put, a fresh store's get (its disk read is the wrapped
    # _load_entry, its rebuild the wrapped from_jsonable) and a report
    # served from a fresh store's disk read; then one cold submit that
    # crosses admission, an inline worker's solve and its relay writer.
    result = _run(SERVE, str(tmp_path / "store"))
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.strip().splitlines()[-1])
    read, submitted = out["read"], out["submitted"]
    assert read["store.put"] == 1
    assert read["store.get"] == 1
    assert read["api.report_json"] == 2  # the put's to_jsonable, the get's rebuild
    assert read["serve.report"] == 1
    assert submitted["serve.submit"] == 1
    assert out["samples"]["serve.admission_wait_s"] == 1
    assert submitted["serve.relay"] >= 1
