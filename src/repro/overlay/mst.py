"""Minimum spanning tree on small dense complete graphs.

The spanning-tree oracle works on the complete overlay graph of a session
(at most ~90 members in the paper's experiments), so an ``O(n^2)`` Prim
implementation over a dense weight matrix is both simplest and fastest
here — it avoids the overhead of building a sparse graph object per
oracle call and, unlike :func:`scipy.sparse.csgraph.minimum_spanning_tree`,
treats zero weights as real (very cheap) edges rather than missing ones,
which matters because the exponential length function can underflow to
zero for never-used physical links.

At the session sizes the oracle sees, the per-operation overhead of NumPy
calls dominates an ``O(n^2)`` scan, so matrices up to
``_PYTHON_PRIM_LIMIT`` rows run a plain-Python Prim over ``tolist()``
rows; larger matrices use the vectorised NumPy variant.  Both variants
use identical tie-breaking (first index with the minimum candidate
weight, exactly as ``np.argmin``) so they return the same tree for the
same input.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.util.errors import InvalidSessionError

# Below this size the plain-Python scan beats NumPy's per-call overhead.
# Re-measure with ``test_prim_crossover_sweep`` in
# ``benchmarks/bench_core_ops.py``: python wins up to ~64 rows (0.6x
# numpy's time at 64), the two arms cross in the flat 96-128 band, and
# numpy pulls away above (~1.8x faster at 192).
_PYTHON_PRIM_LIMIT = 96


def _prim_python(w: np.ndarray, n: int) -> List[Tuple[int, int]]:
    """Plain-Python Prim over the rows of ``w`` (fast for small ``n``)."""
    rows = w.tolist()
    inf = float("inf")
    in_tree = [False] * n
    in_tree[0] = True
    best_weight = list(rows[0])
    best_weight[0] = inf
    best_parent = [0] * n
    best_parent[0] = -1

    edges: List[Tuple[int, int]] = []
    for _ in range(n - 1):
        nxt = -1
        best = inf
        for j in range(n):
            if not in_tree[j] and best_weight[j] < best:
                best = best_weight[j]
                nxt = j
        if nxt < 0:
            raise InvalidSessionError(
                "overlay graph is disconnected under the given weights"
            )
        parent = best_parent[nxt]
        edges.append((parent, nxt) if parent < nxt else (nxt, parent))
        in_tree[nxt] = True
        # Relax.
        row = rows[nxt]
        for j in range(n):
            if not in_tree[j] and row[j] < best_weight[j]:
                best_weight[j] = row[j]
                best_parent[j] = nxt
    return edges


def _prim_numpy(w: np.ndarray, n: int) -> List[Tuple[int, int]]:
    """Vectorised Prim (used for large matrices)."""
    in_tree = np.zeros(n, dtype=bool)
    best_weight = np.full(n, np.inf)
    best_parent = np.full(n, -1, dtype=np.int64)

    in_tree[0] = True
    best_weight[:] = w[0]
    best_weight[0] = np.inf
    best_parent[:] = 0
    best_parent[0] = -1

    edges: List[Tuple[int, int]] = []
    for _ in range(n - 1):
        candidates = np.where(~in_tree, best_weight, np.inf)
        nxt = int(np.argmin(candidates))
        if not np.isfinite(candidates[nxt]):
            raise InvalidSessionError(
                "overlay graph is disconnected under the given weights"
            )
        parent = int(best_parent[nxt])
        edges.append((min(parent, nxt), max(parent, nxt)))
        in_tree[nxt] = True
        # Relax.
        improved = (~in_tree) & (w[nxt] < best_weight)
        best_weight[improved] = w[nxt][improved]
        best_parent[improved] = nxt
    return edges


def minimum_spanning_tree_pairs(
    weights: np.ndarray, *, validate: bool = True
) -> List[Tuple[int, int]]:
    """Prim's algorithm over a dense symmetric weight matrix.

    Parameters
    ----------
    weights:
        Square symmetric matrix of non-negative edge weights over a
        complete graph.  ``inf`` entries are treated as missing edges.
    validate:
        Check symmetry and non-negativity before running.  Callers that
        build the matrix symmetric by construction (the spanning-tree
        oracle writes both triangles from one vector every call) pass
        ``False`` to keep the checks off the hot path.

    Returns
    -------
    list of (i, j)
        Index pairs (into the matrix) of the ``n - 1`` tree edges, each
        with ``i < j``.  Deterministic for a given input (ties broken by
        smallest index).

    Raises
    ------
    InvalidSessionError
        If the matrix is not square/symmetric or the graph restricted to
        finite weights is disconnected.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidSessionError(f"weight matrix must be square, got shape {w.shape}")
    n = w.shape[0]
    if n <= 1:
        return []
    if validate:
        if not np.allclose(w, w.T, equal_nan=True):
            raise InvalidSessionError("weight matrix must be symmetric")
        if np.any(w < 0):
            raise InvalidSessionError("weights must be non-negative")

    if n <= _PYTHON_PRIM_LIMIT:
        return _prim_python(w, n)
    return _prim_numpy(w, n)
