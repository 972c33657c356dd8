"""Terminal dashboard for the ``repro.serve`` HTTP service.

Spawns a server (or targets a running one with ``--url``), submits a
small batch of scenarios — one offline max-flow and one online arrival
run — then streams each run's engine telemetry over SSE and polls the
reports, printing a compact live view::

    python examples/serve_dashboard.py
    python examples/serve_dashboard.py --url http://127.0.0.1:8080

Everything here is a stdlib HTTP client (``urllib`` + a line loop over
the SSE response), demonstrating exactly what any external consumer of
the service would do.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.api.specs import (  # noqa: E402
    ArrivalSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.serve.sse import parse_sse_line  # noqa: E402


def example_specs():
    topology = TopologySpec(
        generator="paper_flat", params={"num_nodes": 24, "capacity": 100.0}, seed=7
    )
    offline = ScenarioSpec(
        topology=topology,
        workload=WorkloadSpec(sizes=(4, 3), demand=50.0, seed=21),
        routing="ip",
        solver="max_flow",
        solver_params={"approximation_ratio": 0.9},
    )
    online = ScenarioSpec(
        topology=topology,
        workload=WorkloadSpec(sizes=(3, 2), demand=10.0, seed=5),
        routing="ip",
        solver="online",
        solver_params={"sigma": 10.0},
        arrivals=ArrivalSpec(replication=3, seed=11, demand=1.0),
    )
    return [offline, online]


def post_json(url: str, payload: dict) -> tuple:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json", "X-Client": "dashboard"},
    )
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


def metric_value(base: str, name: str) -> float:
    """One unlabelled sample of the server's ``GET /metrics`` (0 if absent)."""
    with urllib.request.urlopen(f"{base}/metrics") as resp:
        for line in resp.read().decode("utf-8").splitlines():
            sample, _, value = line.rpartition(" ")
            if sample == name:
                return float(value)
    return 0.0


def get_json(url: str) -> tuple:
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


def stream_events(base: str, key: str, timeout: float = 120.0) -> dict:
    """Follow one run's SSE stream, printing a rolling telemetry line."""
    counts: dict = {}
    url = f"{base}/v1/runs/{key}/events?timeout={timeout}"
    state: dict = {}
    last: dict = {}
    with urllib.request.urlopen(url) as resp:
        for raw in resp:
            frame = parse_sse_line(raw, state)
            if frame is None:
                continue
            kind, data = frame
            counts[kind] = counts.get(kind, 0) + 1
            payload = json.loads(data)
            if kind == "congestion":
                last = payload
                sys.stdout.write(
                    f"\r  [{key[:12]}] congestion step {payload.get('step', '?')}: "
                    f"max={payload.get('max_congestion', 0.0):.4f}   "
                )
                sys.stdout.flush()
            if kind in ("end", "timeout"):
                sys.stdout.write("\n")
                tail = {k: v for k, v in payload.items() if k != "kind"}
                print(f"  [{key[:12]}] {kind}: {tail} | events seen: {counts}")
                break
    return {"counts": counts, "last_congestion": last}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url", default=None, help="target a running server instead of spawning one"
    )
    parser.add_argument(
        "--keep", action="store_true", help="leave the spawned server running"
    )
    args = parser.parse_args()

    server = None
    if args.url:
        base = args.url.rstrip("/")
    else:
        workdir = tempfile.mkdtemp(prefix="repro-serve-demo-")
        print(f"spawning server (store under {workdir}) ...")
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--store",
                f"{workdir}/store",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env={**__import__("os").environ, "PYTHONPATH": str(SRC)},
        )
        line = server.stdout.readline().strip()  # "listening on http://..."
        base = line.split()[-1]
    print(f"server: {base}\n")

    try:
        tickets = []
        for spec in example_specs():
            code, payload = post_json(
                f"{base}/v1/solve", {"spec": spec.to_jsonable(), "priority": 0}
            )
            print(f"POST /v1/solve -> {code} {payload.get('state')} "
                  f"key={payload.get('key', '?')[:12]}")
            tickets.append(payload["key"])

        print("\nstreaming telemetry:")
        for key in tickets:
            stream_events(base, key)

        print("\nreports:")
        for key in tickets:
            for _ in range(100):
                code, payload = get_json(f"{base}/v1/reports/{key}")
                if code == 200:
                    summary = payload.get("summary", {})
                    brief = {
                        k: round(v, 4) if isinstance(v, float) else v
                        for k, v in list(sorted(summary.items()))[:4]
                    }
                    print(f"  [{key[:12]}] {payload['algorithm']}: {brief}")
                    break
                time.sleep(0.1)
            else:
                print(f"  [{key[:12]}] still {payload.get('state')} — gave up")

        code, payload = get_json(f"{base}/v1/status")
        adm = payload["admission"]
        puts = metric_value(base, "repro_store_puts_total")
        print(
            f"\nstatus: mode={payload['mode']} depth={adm['depth']} "
            f"admitted={adm['admitted']} shed={adm['shed']} "
            f"store_puts={puts:.0f}"
        )
    finally:
        if server is not None and not args.keep:
            server.terminate()
            server.wait(timeout=5)
            shutil.rmtree(workdir, ignore_errors=True)
        elif server is not None:
            print(f"\nserver left running at {base} (pid {server.pid}), "
                  f"store under {workdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
