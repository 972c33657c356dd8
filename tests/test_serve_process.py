"""``python -m repro.serve`` run the way a user runs it.

One fresh server process in ``tmp_path`` on an ephemeral port, driven
purely over HTTP: submit the ``repro.api example`` spec, poll its report,
stream its SSE telemetry to the end marker, then read ``/v1/status`` and
the Prometheus ``/metrics`` exposition.  Formerly CI's "Serve HTTP
smoke" step and the ``/metrics`` half of its "Observability smoke" step.
A second server runs in cluster mode with ``--spawn-workers 1``: its
child worker solves the spec, and SIGTERM stops the server and the child.
"""

import json
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from tests.test_api_cli import clean_env, run_python


def test_serve_submit_poll_stream_status_and_metrics(tmp_path):
    spec = run_python(tmp_path, "-m", "repro.api", "example").stdout.encode()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--store", "store", "--port", "0"],
        cwd=tmp_path,
        env=clean_env(tmp_path),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        base = server.stdout.readline().split()[-1]
        request = urllib.request.Request(
            f"{base}/v1/solve",
            data=spec,
            method="POST",
            headers={"X-Client": "tier1"},
        )
        with urllib.request.urlopen(request, timeout=60) as resp:
            ticket = json.load(resp)
            assert resp.status == 202 and ticket["state"] == "queued", ticket
        key = ticket["key"]
        deadline = time.monotonic() + 60
        while True:
            with urllib.request.urlopen(f"{base}/v1/reports/{key}", timeout=60) as resp:
                report = json.load(resp)
                if resp.status == 200:
                    break
            assert time.monotonic() < deadline, f"report never landed: {report}"
            time.sleep(0.05)
        assert report["canonical_key"] == key
        assert report["summary"]["overall_throughput"] > 0

        telemetry, end = 0, False
        events = f"{base}/v1/runs/{key}/events?timeout=60"
        with urllib.request.urlopen(events, timeout=90) as resp:
            for raw in resp:
                line = raw.decode().strip()
                if line == "event: end":
                    end = True
                    break
                if line.startswith("event:"):
                    telemetry += 1
        assert end, "SSE stream never reached its end marker"
        assert telemetry >= 1, "SSE stream carried no telemetry events"
        with urllib.request.urlopen(f"{base}/v1/status", timeout=60) as resp:
            status = json.load(resp)
        assert status["admission"]["admitted"] == 1, status["admission"]

        with urllib.request.urlopen(f"{base}/metrics", timeout=60) as resp:
            content_type = resp.headers["Content-Type"]
            text = resp.read().decode()
        assert content_type.startswith("text/plain"), content_type
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        store_total = sum(v for n, v in samples.items() if n.startswith("repro_store_"))
        serve_total = sum(v for n, v in samples.items() if n.startswith("repro_serve_"))
        assert store_total > 0, f"no repro_store_* activity:\n{text}"
        assert serve_total > 0, f"no repro_serve_* activity:\n{text}"
        assert samples.get("repro_serve_submits_total", 0) >= 1, text
        # The store circuit breaker's gauge is registered (closed = 0) at
        # app construction, so a healthy server exposes it.
        assert "repro_serve_circuit_open" in samples, text
    finally:
        server.terminate()
        server.wait(timeout=10)
        server.stdout.close()


def test_spawned_workers_solve_and_stop_with_the_server(tmp_path):
    spec = run_python(tmp_path, "-m", "repro.api", "example").stdout.encode()
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "--store", "store",
            "--queue", "queue", "--spawn-workers", "1", "--port", "0",
        ],
        cwd=tmp_path,
        env=clean_env(tmp_path),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        base = server.stdout.readline().split()[-1]
        request = urllib.request.Request(f"{base}/v1/solve", data=spec, method="POST")
        with urllib.request.urlopen(request, timeout=60) as resp:
            key = json.load(resp)["key"]
        deadline = time.monotonic() + 60
        while True:
            with urllib.request.urlopen(f"{base}/v1/reports/{key}", timeout=60) as resp:
                if resp.status == 200:
                    break
            assert time.monotonic() < deadline, "the spawned worker never solved"
            time.sleep(0.05)
        children = Path(f"/proc/{server.pid}/task/{server.pid}/children")
        pids = [int(pid) for pid in children.read_text().split()]
        assert len(pids) == 1, pids
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=60) == 0
        for pid in pids:
            assert not Path(f"/proc/{pid}").exists(), f"worker {pid} outlived the server"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)
        server.stdout.close()
