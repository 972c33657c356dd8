"""``python -m repro.api`` run the way a user runs it.

Each call is a fresh interpreter in ``tmp_path`` with no ``REPRO_*``
variable set: ``list`` and ``example``, a ``run --jobs 2`` batch, a
``run --verbose`` that prints its engine counters on stderr, and a cold
then warm ``run --store`` whose warm report is served from disk.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _api(cwd, *args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(cwd))
    done = subprocess.run(
        [sys.executable, "-m", "repro.api", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return done


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
