"""Process, environment and statistics helpers shared by the workloads."""

from __future__ import annotations

import functools
import hashlib
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
LAUNCH = str(HERE / "launch.py")

#: Variables that change what the program does; no process the benchmark
#: starts may inherit them.
SCRUBBED_ENV = ("REPRO_STORE", "REPRO_JOBS", "REPRO_KERNELS", "REPRO_FAULTS", "REPRO_METRICS")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

_clock = time.perf_counter


@functools.lru_cache(maxsize=None)
def source_digest(root: Path) -> str:
    """A digest of the program's source (``src/**/*.py``).

    It names the code under test where a commit cannot: a checkout need
    not be a git repository.  Per-code records under ``.perfbench/`` (the
    deterministic counts, the warm store) are keyed by it, so runs of two
    versions of the program in one working directory never share them.
    """
    src = root / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env(root: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def launch(
    root: Path,
    mode: str,
    out: Path,
    trace: bool,
    extra: Sequence[str] = (),
    rest: Sequence[str] = (),
) -> subprocess.Popen:
    cmd = [sys.executable, LAUNCH, mode, "--out", str(out), *extra]
    if trace:
        cmd.append("--trace")
    if rest:
        cmd.extend(["--", *rest])
    with open(f"{out}.log", "ab") as log:
        return subprocess.Popen(
            cmd,
            cwd=str(root),
            env=child_env(root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )


def log_tail(out: Path, lines: int = 15) -> str:
    """The end of a child's stderr log, for error messages."""
    try:
        text = Path(f"{out}.log").read_text(errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


def expect_line(proc: subprocess.Popen, prefix: str) -> str:
    """Block until the child prints a line starting with ``prefix``."""
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child exited (code {proc.wait()}) before printing {prefix!r}")
        if line.startswith(prefix):
            return line.strip()


def ready_cpu_s(proc: subprocess.Popen) -> float:
    """Wait for a launched child's ``ready <cpu seconds>`` line.

    Set-up is measured in the child's own CPU seconds (interpreter start
    and imports), which hypervisor steal does not inflate; on an idle core
    it equals the wall time from spawn to ready.
    """
    return float(expect_line(proc, "ready").split()[1])


def tell(proc: subprocess.Popen, word: str) -> None:
    proc.stdin.write(word + "\n")
    proc.stdin.flush()


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM, then SIGKILL if the child outlives ``timeout``; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    return proc.returncode


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    pos = q * (len(data) - 1)
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return float(data[low] + (data[high] - data[low]) * (pos - low))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def reap_all(procs: List[subprocess.Popen]) -> None:
    for proc in procs:
        try:
            stop(proc, timeout=10.0)
        except OSError:
            pass


def wait_all(procs: List[subprocess.Popen], timeout: float) -> Optional[int]:
    deadline = _clock() + timeout
    for proc in procs:
        remaining = max(0.1, deadline - _clock())
        try:
            proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            return None
    return max(p.returncode for p in procs)
