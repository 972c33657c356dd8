"""``python -m repro.obs`` — metrics dump and trace tooling.

Subcommands::

    dump                  print this process's metrics registry as JSON
                          (or Prometheus text with --format prom)
    merge OUT IN [IN...]  stitch per-process trace files into one
                          Perfetto-loadable trace with labelled lanes
    summary TRACE         aggregate a trace into a top-spans table

``dump`` is mostly useful as a library example — long-lived processes
expose the same registry over ``GET /metrics`` on the serve layer.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.metrics import registry
from repro.obs.tracing import load_trace, merge_traces, summarize_trace


def _cmd_dump(args: argparse.Namespace) -> int:
    reg = registry()
    if args.format == "prom":
        sys.stdout.write(reg.render_prometheus())
    else:
        print(reg.render_json())
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    merged = merge_traces(args.inputs)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(merged, handle)
    spans = sum(1 for e in merged["traceEvents"] if e.get("ph") == "X")
    print(
        f"merged {len(args.inputs)} trace(s) -> {args.output} "
        f"({spans} spans)"
    )
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    payload = load_trace(args.trace)
    rows = summarize_trace(payload)[: args.top]
    if not rows:
        print("no spans found")
        return 0
    from repro.util.tables import format_table

    print(
        format_table(
            ["span", "count", "total_ms", "mean_ms", "max_ms"],
            [
                [r["span"], r["count"], r["total_ms"], r["mean_ms"], r["max_ms"]]
                for r in rows
            ],
            precision=3,
            title=f"top spans: {args.trace}",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="observability tooling: metrics dump, trace merge/summary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dump = sub.add_parser("dump", help="print the metrics registry")
    dump.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="output format (default: json)",
    )
    dump.set_defaults(func=_cmd_dump)

    merge = sub.add_parser("merge", help="stitch trace files into one")
    merge.add_argument("output", help="merged trace output path")
    merge.add_argument("inputs", nargs="+", help="input trace files")
    merge.set_defaults(func=_cmd_merge)

    summary = sub.add_parser("summary", help="top-spans table for a trace")
    summary.add_argument("trace", help="trace file to summarize")
    summary.add_argument(
        "--top", type=int, default=20, help="rows to print (default: 20)"
    )
    summary.set_defaults(func=_cmd_summary)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
