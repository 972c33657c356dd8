"""The four workloads.  Each returns a :class:`Outcome`.

Workload choice (one reason each):

* ``solve_ip`` — cold ``solve(spec)`` under fixed-IP routing: tree
  selection, Prim, the batched front, the ledger and length updates do
  nearly all the work; Dijkstra runs only at instance build.  Its two
  scales sit on either side of the 2048-edge sparse-length and ledger
  crossovers.
* ``solve_dynamic`` — the same solvers under dynamic routing, where
  Dijkstra and path reconstruction dominate.  Routing changes show here
  and must leave ``solve_ip`` unchanged.
* ``serve_mix`` — an open loop of warm and cold tickets against
  ``python -m repro.serve``: HTTP, admission, store reads and durable
  writes, relay writes and report JSON do most of the work.
* ``cluster_drain`` — a batch drained by two ``repro.cluster`` worker
  processes: claim renames, requeue scans, heartbeats, durable puts and
  the idle tail.  The only workload where the queue layer works.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import loadgen
import procs
import scenarios

_clock = time.perf_counter

#: solve_*: every spec is solved at least this often per run, so that its
#: median time is robust to a burst of machine noise.
MIN_PASSES = 3
#: serve_mix: tickets per second, and the share of them that are cold.
#: At 25 s this takes every spec of each cold pool (8 per family), so the
#: seed orders the cold solves but does not choose them, and keeps the
#: server's solver thread about half busy on two cores (see README.md).
TICKET_RATE = 6.0
COLD_SHARE = 0.27
#: serve_mix: a run is invalid when the generator's p90 lateness exceeds
#: this, or when the backlog at the end of the arrival window exceeds
#: ``max(BACKLOG_FLOOR, 2 * p90 backlog during the window)``.
MAX_LATE_P90_S = 0.25
BACKLOG_FLOOR = 8
#: How long tickets may stay outstanding after the window closes.
DRAIN_GRACE_S = 20.0
#: cluster_drain: specs of each cold family in one batch.
DRAIN_PER_FAMILY = 8
DRAIN_WORKERS = 2
DRAIN_SHARDS = 2
WORKER_POLL_S = 0.1


@dataclass
class Outcome:
    metrics: Dict[str, float]
    samples: Dict[str, int]
    attempted: int
    failed: int
    wrong: List[str]  # incorrect outputs, or an invalid run: "correct" is false
    failures: List[str] = field(default_factory=list)  # operations that failed
    notes: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    kernel_s: List[float] = field(default_factory=list)  # calibrate.py samples


def _robust_seconds(rows: List[Dict[str, Any]]) -> float:
    """Summed ``seconds`` of ``rows``, each group of alike solves (one spec,
    or one family) counted at its median: a burst of machine noise during
    one solve then moves the sum by less than that solve's own slowdown."""
    groups: Dict[str, List[float]] = {}
    for row in rows:
        groups.setdefault(row["group"], []).append(row["seconds"])
    return sum(len(times) * procs.median(times) for times in groups.values())


def _solver_rates(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """``*_per_s``: solves (arrivals for online) of each solver ÷ their seconds."""
    out = {}
    for solver, metric in scenarios.SOLVER_METRIC.items():
        mine = [r for r in rows if r["solver"] == solver]
        units = sum(r["arrivals"] if solver == "online" else 1 for r in mine)
        out[metric] = procs.ratio(units, _robust_seconds(mine))
    return out


# ----------------------------------------------------------------------
# solve_ip / solve_dynamic
# ----------------------------------------------------------------------
def run_solve(root: Path, work: Path, ref: Dict, workload: str, seed: int,
              seconds: float, trace: bool) -> Outcome:
    entries = scenarios.solve_plan(ref, workload, seed)
    plan = work / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "entries": entries,
                "seconds": seconds,
                "min_passes": 1 if trace else MIN_PASSES,
                "calibrate": not trace,
            }
        )
    )
    out = work / "solve.json"
    setups = []
    for attempt in range(procs.SETUP_REPEATS):
        proc = procs.launch(root, "solve", out, trace, extra=["--plan", str(plan)])
        try:
            setups.append(procs.ready_cpu_s(proc))
            if attempt == procs.SETUP_REPEATS - 1:
                procs.tell(proc, "go")
                code = procs.wait_all([proc], timeout=seconds + 150)
        finally:
            procs.stop(proc)
    if code != 0:
        raise RuntimeError(f"solve process exited with {code}")
    data = json.loads(out.read_text())
    # A solve is single-threaded CPU work: time it in CPU seconds of the
    # solve process, which hypervisor steal (~20% of this machine's busy
    # time, in bursts) does not inflate.  On an idle core it equals wall.
    rows = [dict(r, group=r["key"], seconds=r["cpu_s"]) for r in data["results"] if "cpu_s" in r]
    failures = [f"{r['key'][:12]}: {r['reason']}" for r in data["results"] if "cpu_s" not in r]
    wrong = [f"{r['key'][:12]}: {r['reason']}" for r in rows if not r["ok"]]
    metrics = {"setup_s": procs.median(setups), "peak_rss_mb": data["peak_rss_mb"]}
    metrics.update(_solver_rates(rows))
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    for solver, metric in scenarios.SOLVER_METRIC.items():
        samples[metric] = sum(1 for r in rows if r["solver"] == solver)
    metrics["request_cpu_ms"] = 1000.0 * procs.ratio(_robust_seconds(rows), len(rows))
    samples["request_cpu_ms"] = len(rows)
    outcome = Outcome(
        metrics, samples, len(data["results"]), len(failures) + len(wrong), wrong, failures
    )
    wall = sum(r["wall_s"] for r in rows)
    outcome.notes.append(
        f"passes={data['passes']} solves={len(rows)} wall_s={wall:.3f} "
        f"cpu_s={sum(r['cpu_s'] for r in rows):.3f} pass_wall_s="
        + ",".join(f"{w:.3f}" for w in data["pass_walls"])
    )
    outcome.counts = _counts_by_key(rows, outcome)
    outcome.kernel_s = data["kernel_s"]
    _cross_check(
        outcome, "solve process", data["registry"],
        steps=_engine_steps(rows),
    )
    if trace:
        traces = [_load_trace(Path(str(out) + ".trace"))]
        _wrapped_counts(traces, outcome)
        outcome.layers = layer_metrics(traces, rows, data.get("trace_overhead", 0.0))
        # solve()'s own work outside every wrapped layer call: arrival
        # expansion, canonical-key hashing, report assembly.
        outcome.layers["unattributed_s"] = sum(
            t["layers"].get("api.solve", {}).get("self_s", 0.0) for t in traces
        )
    return outcome


def _engine_steps(rows: List[Dict[str, Any]]) -> int:
    """Engine steps the program's registry should show for these solves.

    A max_concurrent_flow solve also runs one single-session MaxFlow per
    session to pre-scale demands (one step per oracle call).  Rounding
    reports carry no engine telemetry; their steps come from the
    reference record of the same spec.
    """
    return sum(
        (r["counts"]["steps"] + r.get("prescale_steps", 0)) or r.get("engine_steps", 0)
        for r in rows
    )


def _counts_by_key(rows: List[Dict[str, Any]], outcome: Outcome) -> Dict[str, Dict[str, int]]:
    """Each key's counts; a key whose repeats disagree fails the run."""
    seen: Dict[str, Dict[str, int]] = {}
    for row in rows:
        previous = seen.setdefault(row["key"], row["counts"])
        if previous != row["counts"]:
            outcome.wrong.append(f"UNSTEADY counts within run for {row['key'][:12]}")
    return seen


def _cross_check(outcome: Outcome, where: str, registry: Dict[str, float], **expected) -> None:
    """Compare the benchmark's counts with the program's own metrics
    registry; a mismatch fails the run."""
    names = {
        "steps": "repro_engine_steps_total",
        "puts": "repro_store_puts_total",
        "claims": "repro_queue_claims_total",
    }
    agreed = []
    for what, value in expected.items():
        got = registry.get(names[what], 0.0)
        if int(got) != int(value):
            outcome.wrong.append(
                f"UNSTEADY {what}: benchmark counted {int(value)}, {where} registry {int(got)}"
            )
        else:
            agreed.append(f"{what}={int(value)}")
    if agreed:
        outcome.notes.append(f"{where} registry agrees: {' '.join(agreed)}")


def _wrapped_counts(traces: List[Dict[str, Any]], outcome: Outcome) -> None:
    """Dijkstra calls and tree builds per ``solve()`` call, counted by the
    layer wrappers: every solve of one spec must make the same number.
    They join the run's deterministic counts under ``wrapped:<key>``."""
    merged: Dict[str, List[Dict[str, int]]] = {}
    for trace in traces:
        for key, solves in trace.get("solve_counts", {}).items():
            merged.setdefault(key, []).extend(solves)
    for key, solves in merged.items():
        if any(counts != solves[0] for counts in solves):
            outcome.wrong.append(f"UNSTEADY wrapper counts within run for {key[:12]}")
        outcome.counts[f"wrapped:{key}"] = solves[0]


def _load_trace(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text()) if path.exists() else {"layers": {}, "counters": {}, "samples": {}}


# ----------------------------------------------------------------------
# serve_mix
# ----------------------------------------------------------------------
def _warm_store(root: Path, ref: Dict) -> Path:
    """The pre-solved warm store, built once per program source and copied
    per run: a store written by one version is never read by another."""
    entries = scenarios.warm_set(ref)
    tag = hashlib.sha256("".join(e["key"] for e in entries).encode()).hexdigest()[:12]
    cache = root / ".perfbench" / f"warm-store-{procs.source_digest(root)}-{tag}"
    if cache.exists():
        return cache
    building = cache.with_name(cache.name + ".building")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    (building / "specs.json").write_text(json.dumps([e["spec"] for e in entries]))
    proc = procs.launch(
        root, "fill", building / "fill.json", False,
        extra=["--plan", str(building / "specs.json"), "--store", str(building / "store")],
    )
    code = procs.wait_all([proc], timeout=600)
    procs.stop(proc)
    if code != 0:
        raise RuntimeError(f"warm-store build exited with {code}")
    building.rename(cache)
    return cache


def _warm_tickets(ref: Dict, rng: random.Random, count: int) -> List[Dict[str, Any]]:
    """``count`` warm specs, in seeded order, with skewed popularity.

    Popularity is Zipf (s = 0.9) over the 160 warm keys, more than the
    store's 128-entry memory front, so both memory hits and disk loads
    occur.  Each rank gets its Zipf share of ``count`` (largest
    remainders), and rank ``r`` always belongs to the warm family
    ``r mod 4``; the seed picks which of that family's keys holds the
    rank, and the order.  Every run therefore reads the same number of
    keys of each family the same number of times, and the seed cannot
    change the amount of warm work.
    """
    families = [list(scenarios.pool(ref, f)) for f in scenarios.WARM_FAMILIES]
    for keys in families:
        rng.shuffle(keys)
    ranked = [families[r % len(families)][r // len(families)]
              for r in range(sum(len(keys) for keys in families))]
    weights = [1.0 / (r + 1) ** 0.9 for r in range(len(ranked))]
    shares = [count * w / sum(weights) for w in weights]
    times = [int(share) for share in shares]
    by_remainder = sorted(range(len(ranked)), key=lambda r: int(shares[r]) - shares[r])
    for r in by_remainder[: count - sum(times)]:
        times[r] += 1
    warm = [entry for entry, n in zip(ranked, times) for _ in range(n)]
    rng.shuffle(warm)
    return warm


def _schedule(ref: Dict, seed: int, seconds: float, start: float) -> List[loadgen.Ticket]:
    rng = random.Random(f"serve_mix:{seed}")
    total = int(TICKET_RATE * seconds)
    # The same number of cold tickets from every cold family, at most
    # the whole pool.
    families = len(scenarios.COLD_FAMILIES)
    per_family = min(
        min(len(scenarios.pool(ref, f)) for f in scenarios.COLD_FAMILIES),
        max(1, round(total * COLD_SHARE / families)),
    )
    cold = scenarios.cold_batch(ref, seed, per_family, "serve_mix")
    warm = _warm_tickets(ref, rng, total - len(cold))
    # Spread the cold tickets evenly: one at a seeded place in each of
    # len(cold) equal blocks of the schedule.
    bounds = [round(k * total / len(cold)) for k in range(len(cold) + 1)]
    cold_at = {rng.randrange(lo, hi): entry for lo, hi, entry in zip(bounds, bounds[1:], cold)}
    tickets = []
    gap = 1.0 / TICKET_RATE
    for index in range(total):
        if index in cold_at:
            kind, entry = "cold", cold_at[index]
        else:
            kind, entry = "warm", warm.pop()
        due = start + (index + 0.5 + rng.uniform(-0.3, 0.3)) * gap
        tickets.append(loadgen.Ticket(index=index, kind=kind, entry=entry, due=due))
    return tickets


def _start_server(root: Path, store: Path, out: Path, trace: bool, calibrate_solves: bool):
    proc = procs.launch(
        root, "serve", out, trace, extra=["--calibrate"] if calibrate_solves else [],
        rest=["--store", str(store), "--port", "0", "--inline-workers", "1"],
    )
    try:
        line = procs.expect_line(proc, "listening on http://")
        port = int(line.rsplit(":", 1)[1])
        _wait_healthy(proc, port)
        # Set-up in the server's CPU seconds up to /healthz 200 (see
        # procs.ready_cpu_s for why CPU time).
        return proc, port, procs.cpu_seconds(proc.pid)
    except BaseException:
        procs.stop(proc)
        raise


def _wait_healthy(proc, port: int) -> None:
    conn = None
    while True:
        try:
            if conn is None:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                conn.close()
                return
        except OSError:
            if conn is not None:
                conn.close()
            conn = None
            time.sleep(0.01)
        if proc.poll() is not None:
            raise RuntimeError("server exited during start-up")


def _serve_phase(root, work, ref, seed, seconds, trace, warm_cache, tag, calibrate_solves=False):
    store = work / f"store-{tag}"
    shutil.copytree(warm_cache / "store", store)
    out = work / f"server-{tag}.json"
    setups = []
    for attempt in range(procs.SETUP_REPEATS):
        proc, port, setup = _start_server(root, store, out, trace, calibrate_solves)
        setups.append(setup)
        if attempt < procs.SETUP_REPEATS - 1:
            procs.stop(proc)
    try:
        start = _clock() + 0.2
        tickets = _schedule(ref, seed, seconds, start)
        window_end = start + seconds
        cpu_started = procs.cpu_seconds(proc.pid)
        result = loadgen.OpenLoop(port, tickets, window_end, window_end + DRAIN_GRACE_S).run()
        # The server's CPU seconds while it served the tickets.
        cpu = procs.cpu_seconds(proc.pid) - cpu_started
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("GET", "/metrics")
        metrics_text = conn.getresponse().read().decode()
        conn.close()
    finally:
        procs.stop(proc)
    server = json.loads(out.read_text())
    return result, setups, server, metrics_text, cpu


def run_serve(root: Path, work: Path, ref: Dict, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.api.service import SolveReport

    import checks
    from launch import _prometheus_counters

    warm_cache = _warm_store(root, ref)
    baseline_cpu = None
    if trace:
        # An untraced third of the window first: the baseline of the
        # tracing-overhead ratio (server CPU seconds per ticket).
        base, _, _, _, cpu = _serve_phase(root, work, ref, seed, seconds / 3, False, warm_cache, "base")
        baseline_cpu = procs.ratio(cpu, len(base.tickets))
        seconds = seconds * 2 / 3
    # Untraced, the solver thread also times the reference kernel before
    # each solve: the machine speed sampled through the window, where the
    # solves run (calibrate.py).
    result, setups, server, metrics_text, cpu = _serve_phase(
        root, work, ref, seed, seconds, trace, warm_cache, "main", calibrate_solves=not trace
    )
    cpu -= sum(server["kernel_s"])
    solve_cpu = dict(server["solves"])  # key -> CPU seconds of its solve() call
    wrong: List[str] = []
    failures: List[str] = []
    latencies: Dict[str, List[float]] = {"warm": [], "cold": []}
    cold_rows = []
    counts: Dict[str, Dict[str, int]] = {}
    for ticket in result.tickets:
        if ticket.done is None or ticket.error is not None:
            failures.append(f"ticket {ticket.index} ({ticket.kind}): {ticket.error or 'unfinished'}")
            continue
        report = SolveReport.from_jsonable(json.loads(ticket.body))
        ok, reason = checks.check(ticket.entry, report, key=ticket.key)
        if not ok:
            wrong.append(f"ticket {ticket.index}: {reason}")
            continue
        latencies[ticket.kind].append(ticket.done - ticket.due)
        if ticket.kind == "cold":
            if ticket.key not in solve_cpu:
                wrong.append(f"ticket {ticket.index}: cold ticket answered without a solve() call")
                continue
            row = {
                "key": ticket.key,
                "group": ticket.entry["family"],
                "solver": report.spec.solver,
                "seconds": solve_cpu[ticket.key],
                "arrivals": ticket.entry.get("arrivals"),
                "engine_steps": ticket.entry.get("engine_steps", 0),
                "counts": checks.counts(report),
                "prescale_steps": int(report.solution.extra.get("prescale_oracle_calls", 0)),
            }
            cold_rows.append(row)
            counts[ticket.key] = row["counts"]
    metrics = {"setup_s": procs.median(setups), "peak_rss_mb": server["peak_rss_mb"]}
    samples = {"setup_s": len(setups), "peak_rss_mb": 1}
    metrics.update(_solver_rates(cold_rows))
    for solver, metric in scenarios.SOLVER_METRIC.items():
        samples[metric] = sum(1 for r in cold_rows if r["solver"] == solver)
    metrics["request_cpu_ms"] = 1000.0 * procs.ratio(cpu, len(result.tickets))
    samples["request_cpu_ms"] = len(result.tickets)
    failed = len(failures) + len(wrong)
    outcome = Outcome(
        metrics, samples, len(result.tickets), failed, wrong, failures, counts=counts,
        kernel_s=server["kernel_s"],
    )
    late_p90 = procs.quantile(result.late_s, 0.9)
    backlog_limit = max(BACKLOG_FLOOR, 2 * procs.quantile(result.backlog_samples, 0.9))
    for kind, values in latencies.items():
        outcome.notes.append(
            f"{kind}_ticket_s.p50={procs.quantile(values, 0.5):.4f} "
            f"p90={procs.quantile(values, 0.9):.4f} n={len(values)}"
        )
    solver_cpu = sum(solve_cpu.values())
    outcome.notes.append(
        f"server_cpu_s={cpu:.3f} in solve()={solver_cpu:.3f} "
        f"outside solve() per ticket={1000.0 * procs.ratio(cpu - solver_cpu, len(result.tickets)):.3f} ms"
    )
    outcome.notes.append(
        f"failed_share={procs.ratio(failed, len(result.tickets)):.4f} "
        f"gen.late_s.p90={late_p90:.4f} gen.backlog_end={result.backlog_end} "
        f"(limit {backlog_limit:.0f})"
    )
    if late_p90 > MAX_LATE_P90_S or result.backlog_end > backlog_limit:
        outcome.notes.append("INVALID: the generator ran late or the backlog grew")
        outcome.wrong.append("open-loop validity")
    if failed:
        outcome.notes.append("server /metrics cross-check skipped: some tickets failed")
    else:
        _cross_check(
            outcome, "server /metrics", _prometheus_counters(metrics_text),
            steps=_engine_steps(cold_rows), puts=len(cold_rows),
        )
    if trace:
        traces = [_load_trace(Path(str(work / "server-main.json") + ".trace"))]
        _wrapped_counts(traces, outcome)
        layers = layer_metrics(traces, cold_rows, procs.ratio(procs.ratio(cpu, len(result.tickets)), baseline_cpu))
        handler = traces[0].get("handler_s", {})
        gaps = [r.seconds - handler[r.request_id] for r in result.requests if r.request_id in handler]
        layers["serve.http_s.p50"] = procs.quantile(gaps, 0.5)
        layers["serve.http_s.p90"] = procs.quantile(gaps, 0.9)
        # A delayed-ACK stall costs ~40 ms; loopback transport alone < 1 ms.
        layers["serve.http_s.stalled_ratio"] = procs.ratio(
            sum(1 for gap in gaps if gap > 0.02), len(gaps)
        )
        layers["unattributed_s"] = sum(gaps)
        layers["gen.late_s.p90"] = late_p90
        layers["gen.backlog_end"] = float(result.backlog_end)
        outcome.layers = layers
    return outcome


# ----------------------------------------------------------------------
# cluster_drain
# ----------------------------------------------------------------------
def _drain_once(root, work, batch, specs, index, trace, calibrate_solves=False):
    from repro.cluster.queue import WorkQueue

    queue_dir = work / f"queue-{index}"
    store_dir = work / f"store-{index}"
    outs = [work / f"worker-{index}-{w}.json" for w in range(DRAIN_WORKERS)]
    workers = [
        procs.launch(
            root, "worker", out, trace, extra=["--calibrate"] if calibrate_solves else [],
            rest=["--queue", str(queue_dir), "--store", str(store_dir),
                  "--poll", str(WORKER_POLL_S), "--exit-when-empty"],
        )
        for out in outs
    ]
    try:
        setup = max(procs.ready_cpu_s(proc) for proc in workers)
        queue = WorkQueue(queue_dir)
        submitted_wall = time.time()
        submit_started = _clock()
        queue.submit(specs, num_shards=DRAIN_SHARDS)
        submit_s = _clock() - submit_started
        for proc in workers:
            procs.tell(proc, "go")
        code = procs.wait_all(workers, timeout=150)
    finally:
        procs.reap_all(workers)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    landed = {}
    for entry in batch:
        path = next((store_dir / "objects").glob(f"*/{entry['key']}.json*"), None)
        if path is not None:
            landed[entry["key"]] = path.stat().st_mtime - submitted_wall
    dead = WorkQueue(queue_dir).failures()
    reports = [json.loads(out.read_text()) for out in outs]
    return {
        "setup": setup,
        "submit_s": submit_s,
        "landed": landed,
        "dead": dead,
        "store": store_dir,
        "workers": reports,
        "traces": [_load_trace(Path(str(out) + ".trace")) for out in outs] if trace else [],
    }


def run_cluster(root: Path, work: Path, ref: Dict, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.api.specs import ScenarioSpec
    from repro.store.report_store import ReportStore

    import checks

    batch = scenarios.cold_batch(ref, seed, DRAIN_PER_FAMILY, "cluster_drain")
    specs = [ScenarioSpec.from_jsonable(e["spec"]) for e in batch]
    drains = []
    baseline = None
    deadline = _clock() + seconds
    while True:
        index = len(drains)
        traced = trace and (baseline is not None)
        if trace and baseline is None:
            # One untraced drain first: the tracing-overhead baseline.
            first = _drain_once(root, work, batch, specs, "base", False)
            baseline = max(first["landed"].values()) if first["landed"] else 0.0
            continue
        # Untraced, each worker also times the reference kernel before
        # each solve: the machine speed sampled in the workers, next to
        # the other worker, while they drain (calibrate.py).
        drains.append(
            _drain_once(root, work, batch, specs, index, traced, calibrate_solves=not trace)
        )
        mean = sum(max(d["landed"].values(), default=0.0) + d["setup"] for d in drains) / len(drains)
        if len(drains) >= 2 and _clock() + mean / 2 > deadline:
            break
    wrong: List[str] = []
    failures: List[str] = []
    rows = []
    landed_s: List[float] = []
    rates: List[float] = []
    cpu_per_spec: List[float] = []
    for drain in drains:
        store = ReportStore(drain["store"])
        # key -> CPU seconds of its solve() call, store put included
        solve_cpu = {key: cpu for w in drain["workers"] for key, cpu in w["solves"]}
        for entry in batch:
            key = entry["key"]
            report = store.get(key) if key in drain["landed"] else None
            if report is None:
                error = drain["dead"].get(key)
                failures.append(
                    f"{key[:12]}: " + (f"dead-lettered: {error}" if error else "no report")
                )
                continue
            ok, reason = checks.check(entry, report, key=key)
            if not ok:
                wrong.append(f"{key[:12]}: {reason}")
                continue
            if key not in solve_cpu:
                wrong.append(f"{key[:12]}: stored without a solve() call in this drain")
                continue
            landed_s.append(drain["landed"][key])
            row = {
                "key": key,
                "group": key,
                "solver": report.spec.solver,
                "seconds": solve_cpu[key],
                "arrivals": entry.get("arrivals"),
                "engine_steps": entry.get("engine_steps", 0),
                "counts": checks.counts(report),
                "prescale_steps": int(report.solution.extra.get("prescale_oracle_calls", 0)),
            }
            rows.append(row)
        drain_s = max(drain["landed"].values(), default=0.0)
        rates.append(procs.ratio(len(drain["landed"]), drain_s))
        # Both workers' CPU seconds from the go-ahead until they exit,
        # less their reference-kernel runs.
        cpu_per_spec.append(
            procs.ratio(
                sum(w["work_cpu_s"] - sum(w["kernel_s"]) for w in drain["workers"]),
                len(drain["landed"]),
            )
        )
    attempted = len(batch) * len(drains)
    metrics = {
        "setup_s": procs.median([d["setup"] for d in drains]),
        "peak_rss_mb": procs.median(
            [max(w["peak_rss_mb"] for w in d["workers"]) for d in drains]
        ),
        "request_cpu_ms": 1000.0 * procs.median(cpu_per_spec),
    }
    samples = {"setup_s": len(drains), "peak_rss_mb": len(drains), "request_cpu_ms": len(drains)}
    metrics.update(_solver_rates(rows))
    for solver, metric in scenarios.SOLVER_METRIC.items():
        samples[metric] = sum(1 for r in rows if r["solver"] == solver)
    outcome = Outcome(
        metrics, samples, attempted, len(failures) + len(wrong), wrong, failures
    )
    outcome.counts = _counts_by_key(rows, outcome)
    outcome.kernel_s = [k for d in drains for w in d["workers"] for k in w["kernel_s"]]
    solve_share = procs.ratio(
        sum(r["seconds"] for r in rows),
        sum(w["work_cpu_s"] - sum(w["kernel_s"]) for d in drains for w in d["workers"]),
    )
    outcome.notes.append(
        f"drains={len(drains)} drain_per_s={procs.median(rates):.4f} "
        f"({' '.join(f'{r:.3f}' for r in rates)}) "
        f"spec_landed_s.p50={procs.quantile(landed_s, 0.5):.3f} "
        f"p90={procs.quantile(landed_s, 0.9):.3f} "
        f"solve_share_of_worker_cpu={solve_share:.3f} "
        f"failed_share={procs.ratio(outcome.failed, attempted):.4f}"
    )
    registry: Dict[str, float] = {}
    for drain in drains:
        for worker in drain["workers"]:
            for name, value in worker["registry"].items():
                registry[name] = registry.get(name, 0.0) + value
    _cross_check(
        outcome, "worker", registry, steps=_engine_steps(rows),
        puts=len(batch) * len(drains), claims=len(batch) * len(drains),
    )
    if trace:
        traces = [t for d in drains for t in d["traces"]]
        _wrapped_counts(traces, outcome)
        mean_drain = sum(max(d["landed"].values(), default=0.0) for d in drains) / len(drains)
        layers = layer_metrics(traces, rows, procs.ratio(mean_drain, baseline))
        layers["queue.submit.s"] = sum(d["submit_s"] for d in drains)
        layers["unattributed_s"] = sum(
            t["layers"].get("bench.worker", {}).get("self_s", 0.0) for t in traces
        )
        outcome.layers = layers
    return outcome


# ----------------------------------------------------------------------
# per-layer metrics from the trace files of one run
# ----------------------------------------------------------------------
def layer_metrics(traces: List[Dict[str, Any]], rows: List[Dict[str, Any]], overhead: float) -> Dict[str, float]:
    layers: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {}
    for trace in traces:
        for name, slot in trace["layers"].items():
            agg = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in agg:
                agg[k] += slot[k]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for name, values in trace["samples"].items():
            samples.setdefault(name, []).extend(values)

    def calls(name):
        return float(layers.get(name, {}).get("calls", 0))

    def self_s(name):
        return float(layers.get(name, {}).get("self_s", 0.0))

    def total_s(name):
        return float(layers.get(name, {}).get("total_s", 0.0))

    def count_sum(key):
        return float(sum(r["counts"][key] for r in rows))

    out: Dict[str, float] = {}
    for prefix, span in (
        ("api.build_instance", "api.build_instance"),
        ("api.report_json", "api.report_json"),
        ("topology.build", "topology.build"),
        ("routing.dijkstra", "routing.dijkstra"),
        ("overlay.oracle", "overlay.oracle"),
        ("overlay.mst", "overlay.mst"),
        ("overlay.tree_build", "overlay.tree_build"),
        ("lengths.update", "lengths.update"),
        ("engine.front", "engine.front"),
        ("store.get", "store.get"),
        ("store.put", "store.put"),
        ("store.contains", "store.contains"),
        ("queue.claim", "queue.claim"),
        ("serve.submit", "serve.submit"),
        ("serve.report", "serve.report"),
    ):
        out[f"{prefix}.calls"] = calls(span)
        out[f"{prefix}.s"] = self_s(span)
    for name in (
        "routing.paths", "routing.pair_lengths", "overlay.tree_length", "engine.ledger",
        "core.solver", "core.rounding", "queue.submit", "queue.requeue_scan",
        "queue.complete", "engine.step", "serve.relay",
    ):
        out[f"{name}.s"] = self_s(name)
    out["overlay.memo_hit_ratio"] = procs.ratio(
        counters.get("overlay.memo_hits", 0.0), counters.get("overlay.memo_lookups", 0.0)
    )
    out["engine.steps"] = count_sum("steps")
    out["engine.ledger.columns"] = count_sum("ledger_columns")
    out["engine.batched_share"] = procs.ratio(
        count_sum("batched_rounds"), count_sum("batched_rounds") + count_sum("per_session_rounds")
    )
    out["store.get.mem_hit_ratio"] = procs.ratio(counters.get("store.mem_hits", 0.0), calls("store.get"))
    out["queue.claim.empty_ratio"] = procs.ratio(counters.get("queue.claim.empty", 0.0), calls("queue.claim"))
    out["queue.renew.calls"] = calls("queue.renew")
    out["worker.idle_s"] = total_s("worker.idle")
    out["worker.solve.s"] = total_s("api.solve") if "bench.worker" in layers else 0.0
    out["serve.report.pending_ratio"] = procs.ratio(
        counters.get("serve.report.pending", 0.0), calls("serve.report")
    )
    waits = samples.get("serve.admission_wait_s", [])
    out["serve.admission_wait_s.p50"] = procs.quantile(waits, 0.5)
    out["serve.admission_wait_s.p90"] = procs.quantile(waits, 0.9)
    out["serve.http_s.p50"] = 0.0
    out["serve.http_s.p90"] = 0.0
    out["serve.http_s.stalled_ratio"] = 0.0
    out["serve.relay.events"] = calls("serve.relay")
    out["obs.trace_overhead"] = overhead
    out["unattributed_s"] = 0.0
    out["gen.late_s.p90"] = 0.0
    out["gen.backlog_end"] = 0.0
    return out
