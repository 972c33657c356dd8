"""Minimum spanning tree on small complete graphs.

The spanning-tree oracle works on the complete overlay graph of a session
(at most ~90 members in the paper's experiments), so an ``O(n^2)`` Prim
implementation is both simplest and fastest here — it avoids the
overhead of building a sparse graph object per oracle call and, unlike
:func:`scipy.sparse.csgraph.minimum_spanning_tree`, treats zero weights
as real (very cheap) edges rather than missing ones, which matters
because the exponential length function can underflow to zero for
never-used physical links.

The graph's weights come as one *condensed* pair vector: entry ``r``
weights the ``r``-th pair ``(i, j)``, ``i < j``, in
``np.triu_indices(n, k=1)`` order — the order of
:func:`~repro.routing.base.member_pairs`, of the fixed-routing incidence
rows and of the dynamic routing's pair lengths.  Both routings hand the
oracle's vector straight to Prim, so no oracle call fills an ``n x n``
matrix.

At these sizes the per-operation overhead of NumPy calls dominates an
``O(n^2)`` scan, so Prim runs in plain Python over the ``tolist()`` of
the vector.  Ties go to the first index with the minimum candidate
weight, exactly as ``np.argmin`` would break them.
"""

from __future__ import annotations

import functools
import math
from typing import List, Tuple

import numpy as np

from repro.util.errors import InvalidSessionError


@functools.lru_cache(maxsize=None)
def _row_starts(n: int) -> Tuple[int, ...]:
    """``starts[i] + j`` is the condensed position of pair ``(i, j)``, ``i < j``."""
    return tuple(i * (n - 1) - i * (i - 1) // 2 - i - 1 for i in range(n))


def _prim(weights: List[float], n: int) -> List[Tuple[int, int]]:
    """Plain-Python Prim over condensed pair weights, grown from node 0."""
    inf = float("inf")
    starts = _row_starts(n)
    # Node 0's pairs are the first n - 1 entries.
    best_weight = [inf]
    best_weight += weights[: n - 1]
    best_parent = [0] * n
    # Nodes not yet in the tree, in increasing order, so the strict <
    # scan keeps the first index among equal candidates.
    outside = list(range(1, n))

    edges: List[Tuple[int, int]] = []
    while outside:
        nxt = -1
        best = inf
        for j in outside:
            if best_weight[j] < best:
                best = best_weight[j]
                nxt = j
        if nxt < 0:
            raise InvalidSessionError(
                "overlay graph is disconnected under the given weights"
            )
        parent = best_parent[nxt]
        edges.append((parent, nxt) if parent < nxt else (nxt, parent))
        outside.remove(nxt)
        # Relax through nxt's pairs: (j, nxt) sits in j's run of the
        # vector, (nxt, j) in nxt's.
        base = starts[nxt]
        for j in outside:
            w = weights[starts[j] + nxt] if j < nxt else weights[base + j]
            if w < best_weight[j]:
                best_weight[j] = w
                best_parent[j] = nxt
    return edges


def minimum_spanning_tree_pairs(weights: np.ndarray) -> List[Tuple[int, int]]:
    """Prim's algorithm over a complete graph's pair weights.

    Parameters
    ----------
    weights:
        The condensed pair vector of an ``n``-node complete graph (length
        ``n (n - 1) / 2``, ``np.triu_indices(n, k=1)`` order), taken as
        given (the oracles build it from non-negative lengths).  ``inf``
        entries are treated as missing edges.  An empty vector is the
        one-node graph.

    Returns
    -------
    list of (i, j)
        Node index pairs of the ``n - 1`` tree edges, each with
        ``i < j``, in the order Prim adds them.  Deterministic for a
        given input (ties broken by smallest index).

    Raises
    ------
    InvalidSessionError
        If ``weights`` is not a vector, its length is not
        ``n (n - 1) / 2`` for any ``n``, or the graph restricted to
        finite weights is disconnected.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise InvalidSessionError(
            f"pair weights must be a condensed vector, got shape {w.shape}"
        )
    pairs = w.shape[0]
    n = (1 + math.isqrt(1 + 8 * pairs)) // 2
    if n * (n - 1) // 2 != pairs:
        raise InvalidSessionError(
            f"{pairs} pair weights do not cover the pairs of any node count"
        )
    if n <= 1:
        return []
    return _prim(w.tolist(), n)

