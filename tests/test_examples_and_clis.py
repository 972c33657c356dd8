"""The examples and the section CLIs, run the way a user runs them.

Every ``examples/*.py`` must exit 0 and leave no temporary file behind.
Each tiny-scale section CLI must print the same bytes serially and with
``--jobs 2``, which reaches the sweeps only through ``configure_jobs``
and ``solve_many``'s process pool.  Each run is a fresh interpreter in
``tmp_path``, with no ``REPRO_*`` variable set, so nothing in the test
process leaks in.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _run(args, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # TMPDIR keeps the examples' temporary directories under tmp_path.
    (tmp_path / "tmp").mkdir(exist_ok=True)
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path / "tmp"))
    done = subprocess.run(
        [sys.executable, "-W", "ignore", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")[-2000:]
    return done.stdout


def test_examples_exist():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, tmp_path):
    _run([str(example)], tmp_path)
    # serve_dashboard.py's store directory (repro-serve-demo-*) included.
    assert not sorted(p.name for p in (tmp_path / "tmp").iterdir())


@pytest.mark.parametrize("section", [3, 4, 6])
def test_section_cli_prints_the_same_bytes_with_two_jobs(section, tmp_path):
    module = ["-m", f"repro.experiments.section{section}", "--scale", "tiny"]
    serial = _run(module, tmp_path)
    assert serial
    assert _run([*module, "--jobs", "2"], tmp_path) == serial


def test_section5_cli_runs_with_two_jobs(tmp_path):
    assert _run(["-m", "repro.experiments.section5", "--scale", "tiny", "--jobs", "2"], tmp_path)
