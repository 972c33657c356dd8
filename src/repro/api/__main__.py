"""``python -m repro.api`` — run scenario spec files from the command line.

Subcommands
-----------
``run SPEC [SPEC ...]``
    Solve one or more spec files.  Each file holds either a single
    scenario object or a list of scenarios (a batch).  Reports are
    written as JSON to ``--output`` (a single file receiving the list of
    reports) or pretty-printed to stdout.  ``--jobs`` controls batch
    parallelism (0 = all cores; default honours ``REPRO_JOBS``);
    ``--store DIR`` attaches a persistent report store (default honours
    ``REPRO_STORE``), making repeated runs of solved specs near-free;
    ``--verbose`` prints each report's phase-engine counts (steps,
    phases, oracle calls, batched and per-session oracle rounds, events)
    to stderr; ``--trace out.json`` records the run as a Chrome
    trace-event file (open in Perfetto / ``chrome://tracing``, or
    summarise with ``python -m repro.obs summary``).

``cache stats|prune``
    Inspect or trim a persistent report store: ``stats`` prints entry
    and byte counts, ``prune`` deletes oldest entries beyond
    ``--max-entries`` and/or older than ``--max-age-days``.

``list``
    Print the registered topology, routing and solver names.

``example``
    Print a ready-to-run example spec (see ``repro/api/__init__.py`` for
    the documented JSON shape).  ``--solver online`` emits a complete
    online scenario whose ``arrivals`` block (an ``ArrivalSpec``) pins
    replication and arrival order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.api.registry import default_registry
from repro.api.service import SolveReport, solve_many
from repro.api.specs import (
    ArrivalSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    load_scenario_specs,
)
from repro.store import STORE_ENV_VAR, ReportStore, resolve_store
from repro.util.errors import ConfigurationError
from repro.util.jobs import JOBS_ENV_VAR
from repro.util.serialization import dump_json


def _load_specs(path: Path) -> List[ScenarioSpec]:
    try:
        return load_scenario_specs(path)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


def emit_reports(reports, output: Optional[str]) -> None:
    """Write reports as JSON to ``output`` or pretty-print to stdout.

    Shared by every CLI that emits report batches (``repro.api run``,
    ``repro.cluster drain``), so their output format cannot diverge.
    """
    payload = [report.to_jsonable() for report in reports]
    if output:
        dump_json(payload, output)
        print(f"wrote {len(payload)} report(s) to {output}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _describe_instrumentation(report: SolveReport) -> str:
    """One-paragraph engine-telemetry summary of a report (``--verbose``)."""
    instr = report.solution.instrumentation
    header = (
        f"[{report.canonical_key[:12]}] {report.solution.algorithm}"
        f"{' (cached)' if report.cached else ''}"
    )
    if not instr:
        return f"{header}: no engine instrumentation recorded"
    lines = [
        f"{header}: {instr.get('steps', 0)} steps, "
        f"{instr.get('phases', 0)} phases, "
        f"{instr.get('oracle_queries', 0)} oracle calls "
        f"({report.oracle_calls} total incl. pre-scaling)",
        f"  oracle rounds: {instr.get('batched_rounds', 0)} batched / "
        f"{instr.get('per_session_rounds', 0)} per-session",
        f"  events: {len(instr.get('events', []))} retained, "
        f"{instr.get('dropped_events', 0)} dropped past the log bound",
    ]
    if instr.get("max_congestion", 0.0) > 0:
        lines.append(f"  max congestion seen: {instr['max_congestion']:.6g}")
    return "\n".join(lines)


def _store_from_args(args: argparse.Namespace) -> Optional[ReportStore]:
    if getattr(args, "store", None):
        return ReportStore(args.store, compress=getattr(args, "store_gzip", False))
    store = resolve_store(None)  # honour REPRO_STORE
    if store is not None and getattr(args, "store_gzip", False):
        # Fresh per-invocation instance: mutating the memoized env store
        # would leak the flag into later store-less runs in this process.
        return ReportStore(store.root, compress=True)
    return store


def _cmd_run(args: argparse.Namespace) -> int:
    if args.store_gzip and not args.store and not os.environ.get(STORE_ENV_VAR):
        raise SystemExit(
            f"--store-gzip needs a store: pass --store DIR or export {STORE_ENV_VAR}"
        )
    specs: List[ScenarioSpec] = []
    for spec_path in args.specs:
        specs.extend(_load_specs(Path(spec_path)))
    if args.trace:
        from repro.obs.tracing import trace_to

        if args.jobs is not None and args.jobs != 1:
            # The tracer is thread-local: pool workers run in separate
            # processes and escape it, so only the parent is recorded.
            print(
                "note: --trace with --jobs > 1 only records the parent "
                "process; use `cluster worker --trace-dir` plus "
                "`python -m repro.obs merge` for multi-process traces",
                file=sys.stderr,
            )
        tracer_cm = trace_to(args.trace, process_name="repro.api run")
    else:
        from contextlib import nullcontext

        tracer_cm = nullcontext()
    with tracer_cm:
        reports = solve_many(specs, jobs=args.jobs, store=_store_from_args(args))
    if args.verbose:
        # Engine instrumentation to stderr so --output / piped stdout
        # stay pure JSON.
        for report in reports:
            print(_describe_instrumentation(report), file=sys.stderr)
    emit_reports(reports, args.output)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    store = _store_from_args(args)
    if store is None:
        raise SystemExit(
            f"no store configured: pass --store DIR or export {STORE_ENV_VAR}"
        )
    if args.cache_command == "stats":
        process_local = {"hits", "misses", "corrupt", "stale", "memory_entries"}
        for name, value in store.stats().items():
            scope = "  (this process only)" if name in process_local else ""
            print(f"{name:15s} {value}{scope}")
        return 0
    max_age = None if args.max_age_days is None else args.max_age_days * 86400.0
    try:
        removed = store.prune(max_entries=args.max_entries, max_age_seconds=max_age)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None
    print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} from {store.root}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    registry = default_registry()
    print("topologies:", ", ".join(registry.topology_names()))
    print("routings:  ", ", ".join(registry.routing_names()))
    print("solvers:   ", ", ".join(registry.solver_names()))
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    topology = TopologySpec(
        generator="paper_flat", params={"num_nodes": 40, "capacity": 100.0}, seed=7
    )
    workload = WorkloadSpec(sizes=(5, 4), demand=100.0, seed=21)
    if args.solver == "online":
        # A complete online scenario: the ArrivalSpec (replication +
        # permutation seed) makes the run fully spec-determined, so it
        # caches and re-runs through the store like offline scenarios.
        spec = ScenarioSpec(
            topology=topology,
            workload=workload,
            routing="ip",
            solver="online",
            solver_params={"sigma": 10.0, "group_by_members": True},
            arrivals=ArrivalSpec(replication=5, seed=11, demand=1.0),
        )
    else:
        spec = ScenarioSpec(
            topology=topology,
            workload=workload,
            routing="ip",
            solver="max_flow",
            solver_params={"approximation_ratio": 0.9},
        )
    print(spec.to_json(indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description="Solve declarative overlay-multicast scenario specs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve spec file(s) and emit JSON reports")
    run.add_argument("specs", nargs="+", help="spec file(s): one scenario or a list")
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=f"batch worker processes (0 = all cores; default: ${JOBS_ENV_VAR} or 1)",
    )
    run.add_argument("--output", default=None, help="write reports to this JSON file")
    run.add_argument(
        "--store",
        default=None,
        help=f"persistent report-store directory (default: ${STORE_ENV_VAR} if set)",
    )
    run.add_argument(
        "--store-gzip",
        action="store_true",
        help=f"gzip new store entries (with --store or ${STORE_ENV_VAR})",
    )
    run.add_argument(
        "--verbose",
        action="store_true",
        help="print engine counts per report to stderr "
        "(steps, phases, oracle calls and rounds, events)",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="record the run as a Chrome trace-event file (view in "
        "Perfetto or summarise with `python -m repro.obs summary`)",
    )
    run.set_defaults(handler=_cmd_run)

    cache = sub.add_parser("cache", help="inspect or trim a persistent report store")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "print store entry/byte/hit counters"),
        ("prune", "delete oldest entries beyond the given bounds"),
    ):
        cache_cmd = cache_sub.add_parser(name, help=help_text)
        cache_cmd.add_argument(
            "--store",
            default=None,
            help=f"report-store directory (default: ${STORE_ENV_VAR} if set)",
        )
        if name == "prune":
            cache_cmd.add_argument(
                "--max-entries", type=int, default=None, help="keep at most N entries"
            )
            cache_cmd.add_argument(
                "--max-age-days",
                type=float,
                default=None,
                help="drop entries older than this many days",
            )
        cache_cmd.set_defaults(handler=_cmd_cache)

    lst = sub.add_parser("list", help="list registered topologies/routings/solvers")
    lst.set_defaults(handler=_cmd_list)

    example = sub.add_parser("example", help="print an example scenario spec")
    example.add_argument(
        "--solver",
        default="max_flow",
        choices=("max_flow", "online"),
        help="which example to print: an offline max_flow scenario "
        "(default) or a full online scenario with an ArrivalSpec",
    )
    example.set_defaults(handler=_cmd_example)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
