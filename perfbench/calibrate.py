"""Machine-speed reference for the benchmark's CPU-time figures.

On this 2-core VM the CPU speed of one thread swings by up to 2.5x over
minutes, with the load of the host's other tenants, and CPU seconds
swing with it: ten runs spread over twenty minutes read 0.2–0.45 apart
(IQR ÷ median), and no run length averages a swing that outlasts the
run.  So in an untraced run the thread that runs each ``solve()`` —
in the solve process, the server's solver thread, each queue worker —
first runs a fixed reference kernel once, and the run scales its
CPU-time figures to the machine speed at which the median of these
kernel runs takes :data:`REFERENCE_S`.  The speed is thereby sampled
where and while the solves run: under the same interpreter-lock traffic
in the server, next to the other worker in a drain.

The kernel does the kinds of work a solve does — Dijkstra and a minimum
spanning tree on a fixed sparse graph (SciPy), a dict-counting loop and
a small NumPy update loop — but runs none of the program's code, so a
change to the program cannot move it and the scaling cannot hide a
regression.  It imports nothing from ``repro``.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra, minimum_spanning_tree

#: Thread CPU seconds of one kernel run at the reference speed.  Scaled
#: figures read as if measured on a machine where the kernel takes this
#: long; its value only sets the scale, since parent and change runs are
#: scaled alike.
REFERENCE_S = 0.08


def _kernel() -> float:
    rng = np.random.default_rng(2004)
    nodes, edges = 400, 4000
    graph = sparse.csr_matrix(
        (rng.random(edges) + 0.1, (rng.integers(0, nodes, edges), rng.integers(0, nodes, edges))),
        shape=(nodes, nodes),
    )
    total = 0.0
    for source in range(60):
        total += float(dijkstra(graph, indices=source, directed=False)[:10].sum())
        total += float(minimum_spanning_tree(graph).sum())
    counts = {}
    for i in range(180000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
    lengths = np.arange(64, dtype=float)
    for _ in range(9000):
        lengths = np.minimum(lengths * 1.0001, 100.0)
    return total + len(counts) + float(lengths.sum())


def kernel_cpu_s() -> float:
    """Thread CPU seconds of one kernel run."""
    started = time.thread_time()
    _kernel()
    return time.thread_time() - started


def speed(seconds: List[float]) -> float:
    """Machine speed relative to the reference (below 1: slower)."""
    return REFERENCE_S / statistics.median(seconds)
