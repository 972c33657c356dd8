"""The benchmark's traced runs can still wrap this source tree.

``perfbench/layers.py`` replaces named functions and methods across
``repro`` with timing wrappers whenever a benchmark runs with
``--trace 1``.  Untraced runs never import it, so a rename or deletion
under ``src/`` that it depends on would only surface in a traced run.
This test installs every wrapper in a fresh interpreter and expects a
clean exit.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import layers

tracer = layers.LayerTracer()
layers.install(tracer)
layers.install_http(tracer)
"""


def test_perfbench_layer_wrappers_install():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", INSTALL],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
