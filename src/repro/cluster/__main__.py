"""``python -m repro.cluster`` — sharded work-queue execution from the shell.

Subcommands
-----------
``submit SPEC [SPEC ...] --queue DIR``
    Enqueue spec file(s) (same format as ``python -m repro.api run``)
    as work-queue tasks, sharded with ``--num-shards``.

``worker --queue DIR --store DIR``
    Run one cooperative worker: claim → solve → store → complete.
    ``--shard K`` pins it to one shard; ``--exit-when-empty`` returns
    when the queue drains (batch mode) instead of polling forever.

``drain SPEC [SPEC ...] --queue DIR --store DIR --workers N``
    The whole pipeline in one command: submit the batch, spawn N local
    workers, gather asynchronously, and emit the reports as JSON
    (``--output`` or stdout) in input order — a drop-in, multi-process
    replacement for ``python -m repro.api run``.

``status --queue DIR``
    Print pending/claimed/done task counts.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.api.__main__ import emit_reports
from repro.api.specs import ScenarioSpec, load_scenario_specs
from repro.cluster.async_api import solve_many_async
from repro.cluster.queue import WorkQueue
from repro.cluster.worker import run_worker, spawn_local_workers
from repro.util.errors import ConfigurationError


def _load_specs(paths: List[str]) -> List[ScenarioSpec]:
    specs: List[ScenarioSpec] = []
    for spec_path in paths:
        try:
            specs.extend(load_scenario_specs(spec_path))
        except ConfigurationError as exc:
            raise SystemExit(str(exc)) from None
    return specs


def _queue(args: argparse.Namespace) -> WorkQueue:
    kwargs = {}
    if getattr(args, "lease", None) is not None:
        kwargs["lease_seconds"] = args.lease
    if getattr(args, "max_attempts", None) is not None:
        kwargs["max_attempts"] = args.max_attempts
    return WorkQueue(args.queue, **kwargs)


def _cmd_submit(args: argparse.Namespace) -> int:
    specs = _load_specs(args.specs)
    keys = _queue(args).submit(specs, num_shards=args.num_shards)
    print(f"submitted {len(specs)} spec(s) ({len(set(keys))} unique) to {args.queue}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    stats = run_worker(
        _queue(args),
        args.store,
        shard=args.shard,
        poll_seconds=args.poll,
        max_tasks=args.max_tasks,
        exit_when_empty=args.exit_when_empty,
        relay=args.relay,
        trace_dir=args.trace_dir,
    )
    print(
        f"worker done: {stats['completed']} task(s) "
        f"({stats['solved']} solved, {stats['store_hits']} store hits, "
        f"{stats['failed']} failed)"
    )
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    specs = _load_specs(args.specs)
    queue = _queue(args)
    queue.submit(specs, num_shards=args.num_shards)
    with spawn_local_workers(
        args.workers,
        args.queue,
        args.store,
        pin_shards=args.pin_shards,
        poll_seconds=args.poll,
        exit_when_empty=True,
        lease_seconds=args.lease,
        shutdown_timeout=args.timeout,
    ):
        reports = asyncio.run(
            solve_many_async(
                specs,
                queue,
                args.store,
                num_shards=args.num_shards,
                timeout=args.timeout,
                poll_seconds=min(0.05, args.poll),
                submit=False,  # submitted above, before the workers spawned
            )
        )
    emit_reports(reports, args.output)
    return 0


def _cmd_retry(args: argparse.Namespace) -> int:
    moved = _queue(args).retry_failed(key=args.key)
    print(f"requeued {moved} failed task(s)")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    queue = _queue(args)
    counts = queue.counts()
    for state in ("pending", "claimed", "done", "failed"):
        print(f"{state:8s} {counts[state]}")
    for key, error in queue.failures().items():
        print(f"  failed {key[:12]}…: {error}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Sharded work-queue execution over scenario specs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="enqueue spec file(s) as queue tasks")
    submit.add_argument("specs", nargs="+", help="spec file(s): one scenario or a list")
    submit.add_argument("--queue", required=True, help="work-queue directory")
    submit.add_argument("--num-shards", type=int, default=1, help="shard count")
    submit.set_defaults(handler=_cmd_submit)

    worker = sub.add_parser("worker", help="run one cooperative queue worker")
    worker.add_argument("--queue", required=True, help="work-queue directory")
    worker.add_argument("--store", required=True, help="report-store directory")
    worker.add_argument("--shard", type=int, default=None, help="pin to one shard")
    worker.add_argument("--poll", type=float, default=0.2, help="idle poll seconds")
    worker.add_argument("--lease", type=float, default=None, help="lease seconds")
    worker.add_argument(
        "--max-tasks", type=int, default=None, help="stop after N completed tasks"
    )
    worker.add_argument(
        "--exit-when-empty",
        action="store_true",
        help="return when the queue drains instead of polling forever",
    )
    worker.add_argument(
        "--relay",
        default=None,
        help="event-relay directory: stream each solve's engine events "
        "to <relay>/<key>.events.jsonl for the serve layer's SSE tailer",
    )
    worker.add_argument(
        "--trace-dir",
        default=None,
        help="write one Chrome trace-event file per solved task to "
        "<dir>/<key>.trace.json (stitch with `python -m repro.obs merge`)",
    )
    worker.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        help="lease expiries before a task is dead-lettered as poison",
    )
    worker.set_defaults(handler=_cmd_worker)

    drain = sub.add_parser(
        "drain", help="submit a batch, run N local workers, gather reports"
    )
    drain.add_argument("specs", nargs="+", help="spec file(s): one scenario or a list")
    drain.add_argument("--queue", required=True, help="work-queue directory")
    drain.add_argument("--store", required=True, help="report-store directory")
    drain.add_argument("--workers", type=int, default=2, help="local worker processes")
    drain.add_argument("--num-shards", type=int, default=1, help="shard count")
    drain.add_argument(
        "--pin-shards",
        action="store_true",
        help="pin worker i to shard i (requires --num-shards == --workers)",
    )
    drain.add_argument("--poll", type=float, default=0.1, help="worker poll seconds")
    drain.add_argument("--lease", type=float, default=None, help="lease seconds")
    drain.add_argument(
        "--timeout", type=float, default=None, help="gather timeout in seconds"
    )
    drain.add_argument("--output", default=None, help="write reports to this JSON file")
    drain.set_defaults(handler=_cmd_drain)

    status = sub.add_parser("status", help="print queue task counts")
    status.add_argument("--queue", required=True, help="work-queue directory")
    status.set_defaults(handler=_cmd_status)

    retry = sub.add_parser("retry", help="requeue dead-lettered (failed) tasks")
    retry.add_argument("--queue", required=True, help="work-queue directory")
    retry.add_argument(
        "--key", default=None, help="retry one canonical key (default: all failed)"
    )
    retry.set_defaults(handler=_cmd_retry)

    args = parser.parse_args(argv)
    if (
        getattr(args, "pin_shards", False)
        and args.num_shards != args.workers
    ):
        parser.error("--pin-shards requires --num-shards to equal --workers")
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
