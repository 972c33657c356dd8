"""Shortest-path primitives over :class:`PhysicalNetwork`.

Thin, vectorised wrappers around :func:`scipy.sparse.csgraph.dijkstra`.
The flow algorithms need two operations:

* per-source shortest-path trees under a given per-edge weight vector
  (used by both routing models), and
* path reconstruction from the predecessor matrix into
  :class:`~repro.routing.paths.UnicastPath` objects with physical edge
  indices resolved.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.routing.paths import UnicastPath
from repro.topology.network import PhysicalNetwork
from repro.util.errors import InfeasibleProblemError, InvalidNetworkError


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
    CSR builds.  It is consumed immediately by the caller and never
    escapes this module.
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
    src = np.asarray(list(sources), dtype=np.int64)
    if src.size == 0:
        return (
            np.zeros((0, network.num_nodes)),
            np.zeros((0, network.num_nodes), dtype=np.int64),
        )
    if src.min() < 0 or src.max() >= network.num_nodes:
        raise InvalidNetworkError("source outside the network's node range")
    matrix = _weight_matrix(network, edge_weights)
    distances, predecessors = dijkstra(
        matrix, directed=True, indices=src, return_predecessors=True
    )
    return distances, predecessors


def _walk_predecessors(
    network: PhysicalNetwork,
    predecessors_row: np.ndarray,
    source: int,
    destination: int,
) -> Tuple[int, ...]:
    """Node sequence ``source .. destination`` from one predecessor row.

    Raises :class:`InfeasibleProblemError` when the destination is
    unreachable from the source.
    """
    nodes = [int(destination)]
    current = int(destination)
    limit = network.num_nodes + 1
    for _ in range(limit):
        prev = int(predecessors_row[current])
        if prev < 0:
            raise InfeasibleProblemError(
                f"node {destination} is unreachable from node {source}"
            )
        nodes.append(prev)
        current = prev
        if current == source:
            break
    else:  # pragma: no cover - defensive; predecessor chains cannot cycle
        raise InfeasibleProblemError("predecessor chain did not terminate")
    nodes.reverse()
    return tuple(nodes)


def reconstruct_path(
    network: PhysicalNetwork,
    predecessors_row: np.ndarray,
    source: int,
    destination: int,
) -> UnicastPath:
    """Rebuild the path ``source -> destination`` from one predecessor row.

    Raises :class:`InfeasibleProblemError` when the destination is
    unreachable from the source.
    """
    if source == destination:
        return UnicastPath(nodes=(int(source),), edge_ids=np.empty(0, dtype=np.int64))
    nodes = _walk_predecessors(network, predecessors_row, source, destination)
    return UnicastPath.from_nodes(network, nodes)


def single_pair_shortest_path(
    network: PhysicalNetwork,
    source: int,
    destination: int,
    edge_weights: Optional[np.ndarray] = None,
) -> UnicastPath:
    """Shortest path between a single pair of nodes.

    Routes through :func:`shortest_path_tree` and therefore the cached
    CSR structure, so ad-hoc callers (the LP baseline, metrics) share the
    hot path's zero-build Dijkstra setup.
    """
    distances, predecessors = shortest_path_tree(network, [source], edge_weights)
    if not np.isfinite(distances[0, destination]):
        raise InfeasibleProblemError(
            f"node {destination} is unreachable from node {source}"
        )
    return reconstruct_path(network, predecessors[0], source, destination)


def pairwise_distances(
    network: PhysicalNetwork,
    nodes: Sequence[int],
    edge_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Distance matrix restricted to ``nodes`` (square, in ``nodes`` order).

    Routes through :func:`shortest_path_tree` and therefore the cached
    CSR structure, like every other Dijkstra entry point in this module.
    """
    nodes = list(int(n) for n in nodes)
    distances, _ = shortest_path_tree(network, nodes, edge_weights)
    return distances[:, nodes]


class ShortestPathQuery:
    """Retained result of one (multi-source) Dijkstra invocation.

    The dynamic-routing oracle needs, per call, both the member-pair
    *distances* (to weight the overlay MST) and the chosen tree's
    *paths*.  Both come out of the same Dijkstra run: scipy computes
    every source row independently, so the predecessor row retained here
    is bit-identical to the row a fresh single-source run would return.
    Holding on to the ``(distances, predecessors)`` pair therefore lets
    one invocation answer distance lookups *and* reconstruct any
    ``source -> destination`` path for ``source`` in ``sources`` — the
    pre-change pipeline re-ran a fresh Dijkstra per path source and
    discarded this matrix.
    """

    __slots__ = (
        "_network",
        "_sources",
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
        self._sources = tuple(int(s) for s in sources)
        self._row_of = {s: i for i, s in enumerate(self._sources)}
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

    @property
    def sources(self) -> Tuple[int, ...]:
        """The Dijkstra sources, in row order."""
        return self._sources

    def row_index(self, source: int) -> int:
        """Row of ``source`` in the distance/predecessor matrices."""
        try:
            return self._row_of[int(source)]
        except KeyError as exc:
            raise InvalidNetworkError(
                f"node {source} is not a source of this query"
            ) from exc

    def distance_submatrix(self, members: Sequence[int]) -> np.ndarray:
        """``(len(members), len(members))`` distances between ``members``.

        Every member must be one of the query's sources.  Row/column
        order follows ``members``, matching
        :meth:`~repro.routing.base.RoutingModel.pair_lengths`.
        """
        members = [int(m) for m in members]
        rows = [self.row_index(m) for m in members]
        return self.distances[rows][:, members]

    def path(self, source: int, destination: int) -> UnicastPath:
        """Reconstruct ``source -> destination`` from the retained rows."""
        source, destination = int(source), int(destination)
        if source == destination:
            return UnicastPath(nodes=(source,), edge_ids=np.empty(0, dtype=np.int64))
        row = self.row_index(source)
        if not np.isfinite(self.distances[row, destination]):
            raise InfeasibleProblemError(
                f"nodes {source} and {destination} are disconnected"
            )
        nodes = _walk_predecessors(
            self._network, self.predecessors[row], source, destination
        )
        if self._path_cache is None:
            return UnicastPath.from_nodes(self._network, nodes)
        path = self._path_cache.get(nodes)
        if path is None:
            path = UnicastPath.from_nodes(self._network, nodes)
            self._path_cache[nodes] = path
        return path

    def paths_for_pairs(self, pairs: Sequence[Tuple[int, int]]):
        """Paths for canonical pairs, each from its smaller node's row.

        Orientation matches :meth:`DynamicRouting.paths_for_pairs`: the
        path runs from the canonical (smaller) node, so reconstruction
        from the retained predecessor rows yields exactly the paths the
        per-pair Dijkstra loop produced.
        """
        out = {}
        for u, v in pairs:
            u, v = (int(u), int(v)) if u < v else (int(v), int(u))
            out[(u, v)] = self.path(u, v)
        return out
