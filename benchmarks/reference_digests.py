"""Digest the benchmark's reference reports, so two checkouts can be diffed.

Solves specs recorded in ``perfbench/reference.json`` cold, one after the
other in this process, and prints one line per spec::

    <family> <index> objective=same|DIFF <sha256>

``objective`` compares the solver's objective (as ``perfbench/checks.py``
defines it) with the value recorded in the file, exactly.  The digest is
the SHA-256 of the report's JSON, key order and instrumentation
included, without ``wall_seconds`` and ``cached``, the two fields that
differ from one solve to the next.  A summary goes to standard error.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/reference_digests.py            # first 3 per family
    PYTHONPATH=src python3 benchmarks/reference_digests.py --per-family 0   # every spec

With the defaults that is 39 reports (about 10 s on a 2-core VM; all
219 take about 25 s).  Run the same command in two ``git archive``
checkouts and ``diff`` the outputs: no line differs when a change leaves
every report byte for byte as it was.  The script reads the reference
file and writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ beside perfbench/checks.py

from repro.api import ScenarioSpec  # noqa: E402
from repro.api.service import clear_caches, solve  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"


def _objective_function():
    spec = importlib.util.spec_from_file_location("checks", ROOT / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.objective


def report_digest(report) -> str:
    """SHA-256 of the report's JSON without its run-to-run fields."""
    payload = report.to_jsonable()
    del payload["wall_seconds"], payload["cached"]
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--per-family",
        type=int,
        default=3,
        help="specs solved per family, first ones first (0 = all; default 3)",
    )
    args = parser.parse_args(argv)
    if args.per_family < 0:
        parser.error("--per-family must be at least 0")
    objective = _objective_function()
    families = json.loads(REFERENCE.read_text(encoding="utf-8"))["families"]
    solved = differing = 0
    for family in sorted(families):
        entries = families[family]
        if args.per_family:
            entries = entries[: args.per_family]
        for index, entry in enumerate(entries):
            clear_caches()
            report = solve(ScenarioSpec.from_jsonable(entry["spec"]))
            same = objective(report.solution) == entry["objective"]
            solved += 1
            differing += not same
            verdict = "same" if same else "DIFF"
            print(f"{family} {index} objective={verdict} {report_digest(report)}", flush=True)
    print(
        f"{solved} reports, {solved - differing} objectives as recorded",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
