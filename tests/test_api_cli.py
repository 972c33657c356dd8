"""``python -m repro.api`` run the way a user runs it.

Each call is a fresh interpreter in ``tmp_path`` with no ``REPRO_*``
variable set: ``list`` and ``example``, a ``run --jobs 2`` batch, a
``run --verbose`` that prints its engine counters on stderr, and a cold
then warm ``run --store`` whose warm report is served from disk, a
``cache prune`` that refuses bad bounds in one line, and a ``run
--trace`` summarised by ``python -m repro.obs summary``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def clean_env(cwd):
    """The environment with no ``REPRO_*`` variable and ``TMPDIR`` at ``cwd``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(cwd))
    return env


def run_python(cwd, *args, returncode=0):
    """``python *args`` in a fresh interpreter in ``cwd``."""
    done = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=clean_env(cwd),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == returncode, done.stderr[-2000:]
    return done


def _api(cwd, *args, returncode=0):
    return run_python(cwd, "-m", "repro.api", *args, returncode=returncode)


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    """``python -m repro.api example``, written to a file."""
    cwd = tmp_path_factory.mktemp("example")
    path = cwd / "spec.json"
    path.write_text(_api(cwd, "example").stdout)
    return path


def test_list_then_run_example_with_two_jobs(spec_file, tmp_path):
    assert "max_flow" in _api(tmp_path, "list").stdout
    _api(tmp_path, "run", str(spec_file), "--jobs", "2", "--output", "reports.json")
    reports = json.loads((tmp_path / "reports.json").read_text())
    assert reports and reports[0]["summary"]["overall_throughput"] > 0


def test_verbose_run_reports_engine_counters(spec_file, tmp_path):
    done = _api(
        tmp_path, "run", str(spec_file), "--output", "verbose.json", "--verbose"
    )
    assert "events: " in done.stderr
    instr = json.loads((tmp_path / "verbose.json").read_text())[0]["instrumentation"]
    assert instr["steps"] > 0, instr
    assert instr["batched_rounds"] > 0, instr


def test_store_serves_the_warm_run_from_disk(spec_file, tmp_path):
    for name in ("cold.json", "warm.json"):
        _api(tmp_path, "run", str(spec_file), "--store", "store", "--output", name)
    _api(tmp_path, "cache", "stats", "--store", "store")
    cold, warm = (
        json.loads((tmp_path / name).read_text())[0] for name in ("cold.json", "warm.json")
    )
    assert cold["cached"] is False and warm["cached"] is True

    def strip(report):
        return {k: v for k, v in report.items() if k not in ("wall_seconds", "cached")}

    assert strip(cold) == strip(warm), "store round-trip not bit-identical"


def test_cache_prune_refuses_bad_bounds_in_one_line(spec_file, tmp_path):
    # A negative age put the cutoff in the future and pruned every entry.
    _api(tmp_path, "run", str(spec_file), "--store", "store", "--output", "run.json")
    for bound in (("--max-age-days", "-1"), ("--max-entries", "-1")):
        done = _api(tmp_path, "cache", "prune", "--store", "store", *bound, returncode=1)
        assert done.stderr.count("\n") == 1 and "must be" in done.stderr, done.stderr
    stats = _api(tmp_path, "cache", "stats", "--store", "store").stdout
    assert dict(line.split()[:2] for line in stats.splitlines())["entries"] == "1"


def test_traced_run_summarises_with_solve_and_step_spans(spec_file, tmp_path):
    # Formerly the trace half of CI's "Observability smoke" step.
    _api(tmp_path, "run", str(spec_file), "--trace", "run.trace.json", "--output", "traced.json")
    summary = run_python(tmp_path, "-m", "repro.obs", "summary", "run.trace.json")
    assert "solve" in summary.stdout
    events = json.loads((tmp_path / "run.trace.json").read_text())["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    names = {e["name"] for e in spans}
    assert "solve" in names and "engine.step" in names, sorted(names)
    assert all("ts" in e and "dur" in e for e in spans)
