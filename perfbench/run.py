"""End-to-end benchmark of the overlay-flow solve service.

Run from the repository root::

    python3 perfbench/run.py --workload solve_ip --seed 1 --seconds 25 --trace 0

Workloads: ``solve_ip``, ``solve_dynamic``, ``serve_mix``,
``cluster_drain`` (see ``workloads.py`` for why each is here).  With
``--trace 0`` the run measures the program without layer wrappers and
reports the end-to-end metrics, its CPU-time figures scaled to a
reference machine speed (``calibrate.py``); with ``--trace 1`` it
installs the per-layer wrappers of ``layers.py`` in every process it
starts and reports the per-layer metrics.  Every output is checked
(``checks.py``); the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the run writes goes under ``.perfbench/`` in the current
directory and is removed at the end, except the warm-store cache and the
deterministic-count record, both kept per program source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import scenarios  # noqa: E402

WORKLOADS = ("solve_ip", "solve_dynamic", "serve_mix", "cluster_drain")

END_TO_END_UNITS = {
    "setup_s": "s",
    "maxflow_per_s": "solves/s",
    "concurrent_per_s": "solves/s",
    "online_arrivals_per_s": "arrivals/s",
    "request_cpu_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The CPU-time end-to-end metrics, reported at the reference machine
#: speed (``calibrate.py``): 1 for a rate per CPU second, -1 for a cost in
#: CPU seconds.
SCALED = {
    "setup_s": -1,
    "maxflow_per_s": 1,
    "concurrent_per_s": 1,
    "online_arrivals_per_s": 1,
    "request_cpu_ms": -1,
}


def _versions(root: Path) -> Dict[str, str]:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(root), capture_output=True, text=True, check=False
        ).stdout.strip()
    except OSError:  # no git on this machine
        commit = ""
    return {
        "commit": commit or "unknown",
        "source": procs.source_digest(root),
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _record_counts(root: Path, counts: Dict[str, Dict[str, int]], wrong: List[str]) -> None:
    """Deterministic counts must repeat across runs of one program source;
    a key whose counts differ from an earlier run's fails this run."""
    path = root / ".perfbench" / f"counts-{procs.source_digest(root)}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    differ = 0
    for key, value in counts.items():
        if key in known and known[key] != value:
            differ += 1
        known.setdefault(key, value)
    if differ:
        wrong.append(f"UNSTEADY counts: {differ} key(s) differ from an earlier run of this source")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(path)


def _reference_counts(ref, counts: Dict[str, Dict[str, int]], notes: List[str]) -> None:
    recorded = {
        entry["key"]: entry["counts"]
        for family in ref["families"].values()
        for entry in family
    }
    differ = sum(1 for key, value in counts.items() if recorded.get(key, value) != value)
    notes.append(
        f"counts vs reference.json (commit {ref['commit'][:10]}): "
        f"{len(counts) - differ} equal, {differ} differ"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for var in procs.SCRUBBED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(root / "src"))

    import calibrate
    import workloads

    ref = scenarios.load_reference()
    work = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = bool(args.trace)
    started = time.perf_counter()
    try:
        if args.workload in ("solve_ip", "solve_dynamic"):
            outcome = workloads.run_solve(root, work, ref, args.workload, args.seed, args.seconds, trace)
        elif args.workload == "serve_mix":
            outcome = workloads.run_serve(root, work, ref, args.seed, args.seconds, trace)
        else:
            outcome = workloads.run_cluster(root, work, ref, args.seed, args.seconds, trace)
    except Exception:
        for log in sorted(work.glob("*.log")):
            print(f"--- {log.name}\n{procs.log_tail(log.with_suffix(''))}", file=sys.stderr)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - started

    notes = list(outcome.notes)
    _record_counts(root, outcome.counts, outcome.wrong)
    _reference_counts(ref, outcome.counts, notes)
    if trace:
        metrics = {
            name: {"value": float(value), "unit": _layer_unit(name)}
            for name, value in sorted(outcome.layers.items())
        }
    else:
        if not outcome.kernel_s:
            outcome.wrong.append("no reference-kernel run: no solve ran")
        speed = calibrate.speed(outcome.kernel_s) if outcome.kernel_s else 1.0
        notes.append(
            f"machine speed {speed:.4f} (reference kernel {len(outcome.kernel_s)} runs, median "
            f"{procs.median(outcome.kernel_s):.4f} s, reference {calibrate.REFERENCE_S} s); "
            "as measured: "
            + " ".join(f"{name}={outcome.metrics[name]:.6g}" for name in SCALED)
        )
        metrics = {
            name: {"value": float(outcome.metrics[name] / speed ** SCALED.get(name, 0)), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    info = _versions(root)
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} elapsed={elapsed:.1f}s "
        + " ".join(f"{k}={v}" for k, v in info.items())
    )
    for note in notes:
        print(f"  {note}")
    for line in outcome.wrong[:20]:
        print(f"  WRONG {line}")
    for line in outcome.failures[:20]:
        print(f"  FAILED {line}")
    for name, metric in metrics.items():
        n = outcome.samples.get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}{suffix}")
    result = {
        "correct": not outcome.wrong,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith((".calls", ".events", ".columns", "engine.steps", "gen.backlog_end")):
        return "count"
    if name.endswith(("_ratio", "_share", "trace_overhead")):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
