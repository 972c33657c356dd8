"""Write ``interactions.json``: which end-to-end metric each layer metric moves.

For every per-layer metric the table names the end-to-end metrics and
workloads it should move, where it should stay flat (``"metric": "*"``:
every end-to-end metric of that workload), and its value on the commit
that wrote the file: for a ``*.s`` metric the layer's self time as a
share of all time the traced run attributed, otherwise the metric
itself.  A "moves" entry is ``"gated": true`` when the end-to-end metric
is one ``BENCHMARK.json`` bounds; the others (``warm_ticket_s.*``,
``cold_ticket_s.*``) are wall-clock figures the run prints but does not
gate (see README.md).  Later performance changes cite these names.

    python3 perfbench/interactions.py --traced DIR

``DIR`` holds ``<workload>.json`` files, each the last line of a
``run.py --trace 1`` run of that workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

ALL = ["solve_ip", "solve_dynamic", "serve_mix", "cluster_drain"]
SOLVE = ["solve_ip", "solve_dynamic"]
SERVICE = ["serve_mix", "cluster_drain"]
RATES = ["maxflow_per_s", "concurrent_per_s", "online_arrivals_per_s"]
REQUEST = "request_cpu_ms"

#: metric prefix -> (moves: [(end-to-end metric, workload)],
#: flat on: [workload, all of whose end-to-end metrics should hold, or
#: (end-to-end metric, workload)])
TABLE = {
    "api.build_instance": (
        [(m, w) for m in RATES + [REQUEST] for w in ALL], []),
    "api.report_json": (
        [(REQUEST, w) for w in SERVICE] + [(m, w) for m in RATES for w in SERVICE]
        + [("warm_ticket_s.p90", "serve_mix")], SOLVE),
    "topology.build": (
        [(REQUEST, "serve_mix"), ("warm_ticket_s.p90", "serve_mix")], SOLVE),
    "routing.dijkstra": ([(m, "solve_dynamic") for m in RATES], ["solve_ip"]),
    "routing.paths": ([(m, "solve_dynamic") for m in RATES], ["solve_ip"]),
    "routing.pair_lengths": ([(m, "solve_dynamic") for m in RATES], ["solve_ip"]),
    "overlay.oracle": (
        [("maxflow_per_s", "solve_ip"), ("concurrent_per_s", "solve_ip")], []),
    "overlay.mst": (
        [("maxflow_per_s", "solve_ip"), ("concurrent_per_s", "solve_ip")], []),
    "overlay.tree_build": ([(m, "solve_dynamic") for m in RATES], []),
    "overlay.tree_length": ([(m, w) for m in RATES for w in SOLVE], []),
    "overlay.memo_hit_ratio": ([(m, "solve_dynamic") for m in RATES], []),
    "lengths.update": ([("concurrent_per_s", "solve_ip")], []),
    "engine.step": ([(m, w) for m in RATES for w in ALL], []),
    "engine.steps": ([(m, w) for m in RATES for w in ALL], []),
    "engine.front": (
        [("maxflow_per_s", "solve_ip")],
        [(m, w) for m in ("concurrent_per_s", "online_arrivals_per_s") for w in SOLVE]),
    "engine.ledger": ([("maxflow_per_s", "solve_ip")], []),
    "engine.batched_share": ([("maxflow_per_s", "solve_ip")], []),
    "core.solver": ([(m, w) for m in RATES + [REQUEST] for w in ALL], []),
    "core.rounding": ([(REQUEST, w) for w in SERVICE], SOLVE),
    "store.get": (
        [(REQUEST, "serve_mix"), ("warm_ticket_s.p50", "serve_mix")], SOLVE),
    "store.contains": (
        [(REQUEST, "serve_mix"), ("warm_ticket_s.p50", "serve_mix")], SOLVE),
    "store.put": (
        [(m, w) for m in RATES + [REQUEST] for w in SERVICE]
        + [("cold_ticket_s.p50", "serve_mix")], SOLVE),
    "queue": ([(REQUEST, "cluster_drain")], ["solve_ip", "solve_dynamic", "serve_mix"]),
    "worker": ([(REQUEST, "cluster_drain")], ["solve_ip", "solve_dynamic", "serve_mix"]),
    "serve.admission_wait_s": ([("cold_ticket_s.p90", "serve_mix")], SOLVE),
    "serve.http_s": (
        [("warm_ticket_s.p50", "serve_mix"), ("warm_ticket_s.p90", "serve_mix")], SOLVE),
    "serve.report": (
        [(REQUEST, "serve_mix"), ("warm_ticket_s.p50", "serve_mix")], SOLVE),
    "serve.submit": (
        [(REQUEST, "serve_mix"), ("warm_ticket_s.p50", "serve_mix")], SOLVE),
    "serve.relay": (
        [(m, "serve_mix") for m in RATES] + [("cold_ticket_s.p50", "serve_mix")], SOLVE),
}


def _entry(name: str):
    best = max((p for p in TABLE if name.startswith(p)), key=len, default=None)
    return TABLE.get(best, ([], []))


def _measured_s(metrics) -> float:
    """Seconds the traced run attributed to any layer, plus the unattributed rest."""
    return sum(
        m["value"] for n, m in metrics.items()
        if n.endswith(".s") or n in ("unattributed_s", "worker.idle_s")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="interactions.py")
    parser.add_argument("--traced", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = {m["name"] for m in bench["end_to_end"]}
    runs = {}
    for workload in ALL:
        path = Path(args.traced) / f"{workload}.json"
        if path.exists():
            runs[workload] = json.loads(path.read_text())["metrics"]
    rows = []
    for metric in bench["per_layer"]:
        name = metric["name"]
        moves, flat = _entry(name)
        share = {}
        for workload, metrics in runs.items():
            if name.endswith(".s") and name in metrics:
                share[workload] = round(
                    metrics[name]["value"] / max(_measured_s(metrics), 1e-12), 4
                )
            else:
                share[workload] = metrics.get(name, {}).get("value")
        rows.append(
            {
                "metric": name,
                "moves": [
                    {"metric": m, "workload": w, "gated": m in gated} for m, w in moves
                ],
                "flat_on": [
                    {"metric": f[0], "workload": f[1]} if isinstance(f, tuple)
                    else {"metric": "*", "workload": f}
                    for f in flat
                ],
                "seed_value_or_share": share,
            }
        )
    out = HERE / "interactions.json"
    out.write_text(json.dumps({"schema": "perfbench-interactions/v1", "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
