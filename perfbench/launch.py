"""Subprocess launcher: the solve process, the server and the queue workers.

Every process the benchmark measures starts through this file, so that a
traced run can install :mod:`layers` wrappers before the program runs and
write the per-layer totals when it ends.  Untraced runs import nothing
from ``layers``; in the server and the workers they carry one timer,
around ``solve()`` (:class:`SolveTimer`).

    python3 launch.py solve  --plan PLAN --out OUT [--trace]
    python3 launch.py fill   --plan SPECS --store DIR --out OUT
    python3 launch.py serve  --out OUT [--trace | --calibrate] -- <python -m repro.serve args>
    python3 launch.py worker --out OUT [--trace | --calibrate] -- <python -m repro.cluster worker args>

``solve`` and ``worker`` print ``ready <cpu seconds>`` once their imports
are done and then wait for ``go`` (or ``quit``) on stdin, so set-up is
measured up to the point where the first timed operation can start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

_clock = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _prometheus_counters(text: str) -> Dict[str, float]:
    """Sum each counter family across its label sets."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        family = name.split("{", 1)[0]
        try:
            out[family] = out.get(family, 0.0) + float(value)
        except ValueError:
            continue
    return out


def registry_counters() -> Dict[str, float]:
    """This process's metrics registry, as ``python -m repro.obs dump`` sees it."""
    from repro.obs.metrics import registry

    return _prometheus_counters(registry().render_prometheus())


def _write(path: str, payload: Dict[str, Any]) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def _wait_for_go() -> bool:
    """Report the CPU seconds set-up took, then wait for the go-ahead."""
    print(f"ready {time.process_time()!r}", flush=True)
    return sys.stdin.readline().strip() == "go"


class SolveTimer:
    """CPU seconds of the calling thread in each ``solve()`` call.

    The one timer an untraced server or worker carries: the solve
    workloads time their own ``solve()`` calls the same way, so every
    workload reports solver throughput in CPU seconds, which hypervisor
    steal does not inflate.  A thread's CPU clock also leaves out the
    time a server's solver thread waits for the interpreter lock.

    With ``calibrate_each`` it also times one run of the reference
    kernel (``calibrate.py``) before each solve, in the same thread, so
    that the machine speed is sampled where and while the solves run.
    """

    def __init__(self, calibrate_each: bool = False) -> None:
        self.calls: List[List[Any]] = []  # [canonical key, thread CPU seconds]
        self.kernel_s: List[float] = []
        self.calibrate_each = calibrate_each

    def install(self, module: Any) -> None:
        solve = module.solve

        def timed(spec, *args, **kwargs):
            if self.calibrate_each:
                import calibrate

                self.kernel_s.append(calibrate.kernel_cpu_s())
            started = time.thread_time()
            report = solve(spec, *args, **kwargs)
            self.calls.append([report.canonical_key, time.thread_time() - started])
            return report

        module.solve = timed


def run_solve(args: argparse.Namespace) -> int:
    import checks
    from repro.api import ScenarioSpec, service

    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    if not _wait_for_go():
        return 0
    tracer = None
    deadline = _clock() + plan["seconds"]
    results: List[Dict[str, Any]] = []
    pass_walls: List[float] = []
    baseline_wall = None
    registry_start: Dict[str, float] = {}
    kernel_s: List[float] = []
    while True:
        if args.trace and pass_walls and tracer is None:
            # The first pass runs untraced: it is the baseline of the
            # tracing-overhead ratio.
            import layers

            baseline_wall = pass_walls.pop()
            results.clear()
            registry_start = registry_counters()
            tracer = layers.LayerTracer()
            layers.install(tracer)
        walls = 0.0
        for entry in plan["entries"]:
            spec = ScenarioSpec.from_jsonable(entry["spec"])
            if plan["calibrate"]:
                import calibrate

                kernel_s.append(calibrate.kernel_cpu_s())
            service.clear_caches()
            started = _clock()
            cpu_started = time.process_time()
            try:
                report = service.solve(spec)
            except Exception as exc:  # noqa: BLE001 - a failed solve is a counted failure
                results.append({"key": entry["key"], "ok": False, "reason": repr(exc)})
                continue
            cpu = time.process_time() - cpu_started
            wall = _clock() - started
            walls += wall
            ok, reason = checks.check(entry, report)
            results.append(
                {
                    "key": entry["key"],
                    "solver": spec.solver,
                    "wall_s": wall,
                    "cpu_s": cpu,
                    "ok": ok,
                    "reason": reason,
                    "arrivals": entry.get("arrivals"),
                    "counts": checks.counts(report),
                    "prescale_steps": int(report.solution.extra.get("prescale_oracle_calls", 0)),
                }
            )
        pass_walls.append(walls)
        # Whole passes only, so every run weighs the scenarios alike; stop
        # once less than half a pass of time is left.
        mean_pass = sum(pass_walls) / len(pass_walls)
        if len(pass_walls) >= plan["min_passes"] and _clock() + mean_pass / 2 > deadline:
            break
    out: Dict[str, Any] = {
        "results": results,
        "passes": len(pass_walls),
        "pass_walls": pass_walls,
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss_mb(),
        "registry": {
            name: value - registry_start.get(name, 0.0)
            for name, value in registry_counters().items()
        },
    }
    if tracer is not None:
        out["trace_overhead"] = (sum(pass_walls) / len(pass_walls)) / baseline_wall
        tracer.dump(args.out + ".trace")
    _write(args.out, out)
    return 0


def _install(trace: bool, http: bool) -> Any:
    if not trace:
        return None
    import layers

    tracer = layers.LayerTracer()
    layers.install(tracer)
    if http:
        layers.install_http(tracer)
    return tracer


def run_fill(args: argparse.Namespace) -> int:
    """Solve the listed specs into a durable store (the warm set)."""
    from repro.api import ScenarioSpec, solve
    from repro.store.report_store import ReportStore

    with open(args.plan, encoding="utf-8") as handle:
        specs = json.load(handle)
    store = ReportStore(args.store)
    for spec in specs:
        solve(ScenarioSpec.from_jsonable(spec), store=store)
    _write(args.out, {"stored": len(specs)})
    return 0


def run_serve(args: argparse.Namespace) -> int:
    import repro.serve.app as serve_app
    from repro.serve.__main__ import main

    tracer = _install(args.trace, http=True)
    timer = SolveTimer(calibrate_each=args.calibrate)
    timer.install(serve_app)  # the inline executor's solve()
    code = main(args.rest)
    if tracer is not None:
        tracer.dump(args.out + ".trace")
    _write(
        args.out,
        {
            "peak_rss_mb": peak_rss_mb(),
            "registry": registry_counters(),
            "solves": timer.calls,
            "kernel_s": timer.kernel_s,
        },
    )
    return code


def run_worker(args: argparse.Namespace) -> int:
    import repro.api.service as service  # the worker's solve path, imported before "ready"
    from repro.cluster.__main__ import main

    tracer = _install(args.trace, http=False)
    if tracer is not None:
        import repro.cluster.__main__ as cli

        cli.run_worker = tracer.wrap("bench.worker", cli.run_worker)
    timer = SolveTimer(calibrate_each=args.calibrate)
    timer.install(service)  # run_worker imports solve() from here when it starts
    if not _wait_for_go():
        return 0
    ready_cpu = time.process_time()
    code = main(["worker", *args.rest])
    work_cpu = time.process_time() - ready_cpu
    if tracer is not None:
        tracer.dump(args.out + ".trace")
    _write(
        args.out,
        {
            "peak_rss_mb": peak_rss_mb(),
            "registry": registry_counters(),
            "solves": timer.calls,
            "kernel_s": timer.kernel_s,
            "work_cpu_s": work_cpu,
        },
    )
    return code


def main(argv: List[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    rest: List[str] = []
    if "--" in argv:
        cut = argv.index("--")
        argv, rest = argv[:cut], argv[cut + 1 :]
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("mode", choices=("solve", "fill", "serve", "worker"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--plan")
    parser.add_argument("--store")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)
    args.rest = rest
    modes = {"solve": run_solve, "fill": run_fill, "serve": run_serve, "worker": run_worker}
    return modes[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
