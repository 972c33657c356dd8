"""Digest the benchmark's reference reports, so two checkouts can be diffed.

Solves specs recorded in ``perfbench/reference.json`` cold, one after the
other in this process, and prints one line per spec::

    <family> <index> objective=same|DIFF <sha256>

``objective`` compares the solver's objective (as ``perfbench/checks.py``
defines it) with the value recorded in the file, exactly.  The digest is
the SHA-256 of the report's JSON, key order and instrumentation
included, without ``wall_seconds`` and ``cached``, the two fields that
differ from one solve to the next.

For a spec that also records an ``lp``, a second line follows::

    <family> <index> lp=same|DIFF <sha256>

``lp`` compares the optimum of the exact fixed-route LP of
:mod:`repro.lp.exact` (solved as ``perfbench/make_reference.py`` does)
with the recorded value, exactly; the digest is the SHA-256 of the
solution's objective, session rates and tree flows.  A summary goes to
standard error.

Run from the repository root::

    PYTHONPATH=src python3 benchmarks/reference_digests.py            # first 3 per family
    PYTHONPATH=src python3 benchmarks/reference_digests.py --per-family 0   # every spec

With the defaults that is 39 reports and 25 exact LPs (about 10 s on a
2-core VM); all 219 reports and 121 LPs take about 20-30 s.  Run the same
command in two ``git archive`` checkouts and ``diff`` the outputs: no
line differs when a change leaves every report and every LP solution
byte for byte as it was.  The script reads the reference file and
writes nothing.
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
from repro.api.registry import default_registry  # noqa: E402
from repro.api.service import build_instance, clear_caches, solve  # noqa: E402
from repro.lp.exact import exact_max_concurrent_flow, exact_max_flow  # noqa: E402

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


def exact_lp(spec: ScenarioSpec):
    """The exact fixed-route LP solution of a max_flow / max_concurrent_flow spec."""
    network, sessions, _ = build_instance(spec)
    routing = default_registry().build_routing(network, "ip")
    concurrent = spec.solver == "max_concurrent_flow"
    return (exact_max_concurrent_flow if concurrent else exact_max_flow)(sessions, routing)


def lp_digest(solution) -> str:
    """SHA-256 of an exact solution's objective, session rates and tree flows."""
    flows = [sorted(tree_flows.items()) for tree_flows in solution.tree_flows]
    payload = (solution.objective, solution.session_rates, flows)
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _print_line(family: str, index: int, label: str, same: bool, digest: str) -> bool:
    verdict = "same" if same else "DIFF"
    print(f"{family} {index} {label}={verdict} {digest}", flush=True)
    return same


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
    objectives, optima = [], []
    for family in sorted(families):
        entries = families[family]
        if args.per_family:
            entries = entries[: args.per_family]
        for index, entry in enumerate(entries):
            clear_caches()
            spec = ScenarioSpec.from_jsonable(entry["spec"])
            report = solve(spec)
            same = objective(report.solution) == entry["objective"]
            objectives.append(_print_line(family, index, "objective", same, report_digest(report)))
            if "lp" in entry:
                solution = exact_lp(spec)
                same = solution.objective == entry["lp"]
                optima.append(_print_line(family, index, "lp", same, lp_digest(solution)))
    print(
        f"{len(objectives)} reports, {sum(objectives)} objectives as recorded; "
        f"{len(optima)} exact LPs, {sum(optima)} optima as recorded",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
