"""Shortest-path primitives over :class:`PhysicalNetwork`.

Thin, vectorised wrappers around :func:`scipy.sparse.csgraph.dijkstra`.
Both routing models take their routes from here:

* :func:`shortest_path_tree` runs Dijkstra from a set of sources under a
  given per-edge weight vector (the hop metric when none is given), and
* :class:`ShortestPathQuery` retains one such run and turns its
  predecessor rows into :class:`~repro.routing.paths.UnicastPath`
  objects with physical edge indices resolved — the only route builder.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.routing.base import pair_indices, pair_key
from repro.routing.paths import UnicastPath
from repro.topology.network import PhysicalNetwork, node_id
from repro.util.errors import InfeasibleProblemError, InvalidNetworkError

#: Held from the scratch-CSR refresh through the Dijkstra that reads it.
#: Every solve of a cached instance shares one network and so one scratch
#: matrix; two threads (``repro.serve``'s inline workers) would otherwise
#: re-weight it under each other's search.  A module lock, not one per
#: network, because networks are pickled into reports.
_SCRATCH_LOCK = threading.Lock()


def _weight_matrix(network: PhysicalNetwork, edge_weights: Optional[np.ndarray]):
    """Validated CSR adjacency under ``edge_weights``.

    This is the single validation point for caller-supplied weights: the
    shape check and one ``weights.min() > 0`` test run once per Dijkstra
    call.  Only a zero, negative or NaN weight fails the test, so the
    slower checks run only then: a NaN or negative weight raises
    :class:`InvalidNetworkError` (SciPy would silently drop a NaN edge)
    and a zero weight is clamped (see :func:`shortest_path_tree`).

    The returned matrix is the network's shared scratch CSR adjacency
    (:meth:`PhysicalNetwork.csr_adjacency_inplace`): only its ``.data``
    array is refreshed per call, so a Dijkstra invocation performs zero
    CSR builds.  It is consumed immediately by the caller, under
    ``_SCRATCH_LOCK``, and never escapes this module.
    """
    if edge_weights is None:
        weights = np.ones(network.num_edges, dtype=float)
    else:
        weights = np.asarray(edge_weights, dtype=float)
        if weights.shape != (network.num_edges,):
            raise InvalidNetworkError(
                f"edge_weights must have shape ({network.num_edges},), "
                f"got {weights.shape}"
            )
        if not weights.min() > 0:
            if np.isnan(weights).any():
                raise InvalidNetworkError("edge weights must not be NaN")
            if np.any(weights < 0):
                raise InvalidNetworkError("edge weights must be non-negative")
            if np.any(weights == 0):
                weights = np.where(weights == 0, np.finfo(float).tiny, weights)
    return network.csr_adjacency_inplace(weights)


def shortest_path_tree(
    network: PhysicalNetwork,
    sources: Sequence[int],
    edge_weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dijkstra from every node in ``sources``.

    Returns ``(distances, predecessors)`` with shape
    ``(len(sources), num_nodes)``.  ``edge_weights=None`` means the hop
    metric (all weights 1), which is how fixed IP routes are computed.

    Note: zero weights are clamped to a tiny positive value because the
    CSR adjacency representation cannot distinguish a zero-weight edge
    from a missing edge.  The exponential length functions used by the
    FPTAS are strictly positive, so the clamp only matters for degenerate
    caller-provided weights.

    The search runs in scipy's *directed* mode on the network's scratch
    CSR, and that is exact, not an approximation: the matrix stores every
    edge at ``(u, v)`` and at ``(v, u)`` with bitwise-equal weights, so
    undirected mode's extra scan of each settled node's transposed row
    recomputes the same ``dist[u] + w`` sums, never relaxes a node, and
    the directed run *is* the undirected run, ties included.  Undirected
    mode would also transpose and re-convert the matrix on every call.
    """
    src = [node_id(s) for s in sources]
    if not src:
        return (
            np.zeros((0, network.num_nodes)),
            np.zeros((0, network.num_nodes), dtype=np.int64),
        )
    if min(src) < 0 or max(src) >= network.num_nodes:
        raise InvalidNetworkError("source outside the network's node range")
    with _SCRATCH_LOCK:
        matrix = _weight_matrix(network, edge_weights)
        distances, predecessors = dijkstra(
            matrix, directed=True, indices=src, return_predecessors=True
        )
    return distances, predecessors


class ShortestPathQuery:
    """Retained result of one (multi-source) Dijkstra invocation.

    Both routing models build their routes here.  Fixed IP routing runs
    one hop-metric query per batch of uncached pairs; the dynamic-routing
    oracle needs, per call, both the member-pair *distances* (to weight
    the overlay MST) and the chosen tree's *paths*, and both come out of
    the same run.  scipy computes every source row independently, so a
    retained row is bit-identical to the row a fresh single-source run
    would return: one invocation answers distance lookups *and*
    reconstructs any ``source -> destination`` path for ``source`` in
    ``sources``.
    """

    __slots__ = (
        "_network",
        "_row_of",
        "_path_cache",
        "distances",
        "predecessors",
    )

    def __init__(
        self,
        network: PhysicalNetwork,
        sources: Sequence[int],
        distances: np.ndarray,
        predecessors: np.ndarray,
        path_cache: Optional[dict] = None,
    ) -> None:
        self._network = network
        self._row_of = {node_id(s): i for i, s in enumerate(sources)}
        # Optional cross-query cache of UnicastPaths keyed by their node
        # sequence (the sequence pins the path down completely, edge ids
        # included, so sharing the immutable object is bit-safe).  The
        # solvers' runs concentrate on a handful of distinct paths, so a
        # caller-owned dict turns most reconstructions into one dict hit.
        self._path_cache = path_cache
        self.distances = distances
        self.predecessors = predecessors

    @classmethod
    def run(
        cls,
        network: PhysicalNetwork,
        sources: Sequence[int],
        edge_weights: Optional[np.ndarray] = None,
        path_cache: Optional[dict] = None,
    ) -> "ShortestPathQuery":
        """One Dijkstra from every node in ``sources``, retained."""
        distances, predecessors = shortest_path_tree(network, sources, edge_weights)
        return cls(network, sources, distances, predecessors, path_cache)

    def row_index(self, source: int) -> int:
        """Row of ``source`` in the distance/predecessor matrices.

        The rows are keyed by integer node ids, so a non-integral
        ``source`` such as 1.5 finds none and raises.
        """
        try:
            return self._row_of[source]
        except KeyError as exc:
            raise InvalidNetworkError(
                f"node {source} is not a source of this query"
            ) from exc

    def pair_distances(self, members: Sequence[int]) -> np.ndarray:
        """Distances between ``members`` as one condensed pair vector.

        Entry ``r`` is ``max(d(m_i -> m_j), d(m_j -> m_i))`` for the
        ``r``-th pair ``i < j`` in
        :func:`~repro.routing.base.pair_indices` order, gathered from
        the two members' retained rows; every member must be a source.
        The graph is undirected, so the two directions agree; taking
        their maximum, rather than their mean, keeps each entry one of
        the computed distances, without averaging in any one-sided
        rounding error.
        """
        rows = np.array([self.row_index(m) for m in members], dtype=np.intp)
        cols = np.array(members, dtype=np.intp)
        first, second = pair_indices(cols.shape[0])
        distances = self.distances
        return np.maximum(
            distances[rows[first], cols[second]], distances[rows[second], cols[first]]
        )

    def path(self, source: int, destination: int) -> UnicastPath:
        """Reconstruct ``source -> destination`` from the retained rows.

        Raises :class:`InfeasibleProblemError` when the destination is
        unreachable from the source.
        """
        source, destination = node_id(source), node_id(destination)
        if source == destination:
            return UnicastPath(nodes=(source,), edge_ids=np.empty(0, dtype=np.int64))
        row = self.row_index(source)
        if not math.isfinite(self.distances.item(row, destination)):
            raise InfeasibleProblemError(
                f"nodes {source} and {destination} are disconnected"
            )
        # ``item`` returns a Python int without a NumPy scalar between.
        step = self.predecessors.item
        node = destination
        nodes = [node]
        while node != source:
            node = step(row, node)
            nodes.append(node)
        nodes = tuple(reversed(nodes))
        if self._path_cache is None:
            return UnicastPath.from_nodes(self._network, nodes)
        path = self._path_cache.get(nodes)
        if path is None:
            path = UnicastPath.from_nodes(self._network, nodes)
            self._path_cache[nodes] = path
        return path

    def paths_for_pairs(self, pairs: Sequence[Tuple[int, int]]):
        """Paths for canonical pairs, each from its smaller node's row.

        Every path runs from the canonical (smaller) node, so a pair's
        route does not depend on the order it was asked in; the smaller
        node of every non-trivial pair must be a source.
        """
        out = {}
        for pair in pairs:
            u, v = pair_key(*pair)
            out[(u, v)] = self.path(u, v)
        return out
