"""The capacity-annotated physical network.

:class:`PhysicalNetwork` is the substrate every algorithm in the library
operates on: an undirected graph ``G = (V, E)`` with a capacity ``c_e`` on
each edge (paper Section II).  Edges are stored with stable integer
indices so that the flow algorithms can keep per-edge state (length
functions, congestion, flow) in flat NumPy arrays and update them
vectorised, which is what makes the FPTAS loops tractable in Python.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.util.errors import InvalidNetworkError, ReproError


def node_id(value: Any, error: Type[ReproError] = InvalidNetworkError) -> int:
    """``value`` as a node id, or ``error`` naming it.

    Python and NumPy integers pass (through ``operator.index``); a float
    raises, even an integral one, where ``int()`` would quietly turn
    1.5 into node 1.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"node id must be an integer, got {value!r}") from None


PairKey = Tuple[int, int]


def pair_key(u: int, v: int) -> PairKey:
    """Canonical (sorted) key for an unordered node pair.

    Raises :class:`~repro.util.errors.InvalidNetworkError` for an id that
    is not an integer.
    """
    u, v = node_id(u), node_id(v)
    return (u, v) if u < v else (v, u)


class PhysicalNetwork:
    """Undirected capacitated graph with integer-indexed edges.

    Parameters
    ----------
    num_nodes:
        Number of vertices; vertices are the integers ``0 .. num_nodes-1``.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, capacity)`` tuples.  Parallel
        edges are rejected; the graph is simple and undirected.
    default_capacity:
        Capacity assigned to edges given without an explicit capacity.
    node_positions:
        Optional ``(num_nodes, 2)`` coordinates (kept for Waxman-generated
        topologies; useful for distance-aware experiments and plotting).
    node_levels:
        Optional per-node level labels for hierarchical topologies
        (0 = AS/backbone router, 1 = stub router).
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Tuple],
        default_capacity: float = 1.0,
        node_positions: Optional[np.ndarray] = None,
        node_levels: Optional[Sequence[int]] = None,
    ) -> None:
        if num_nodes <= 0:
            raise InvalidNetworkError(f"num_nodes must be positive, got {num_nodes}")
        if not 0 < default_capacity < math.inf:
            raise InvalidNetworkError(
                f"default_capacity must be positive and finite, got {default_capacity}"
            )
        self._num_nodes = int(num_nodes)

        endpoints: List[Tuple[int, int]] = []
        capacities: List[float] = []
        index_of: Dict[Tuple[int, int], int] = {}
        for item in edges:
            if len(item) == 2:
                u, v = item
                cap = default_capacity
            elif len(item) == 3:
                u, v, cap = item
            else:
                raise InvalidNetworkError(f"edge tuple must have 2 or 3 items, got {item!r}")
            u, v = node_id(u), node_id(v)
            cap = float(cap)
            if u == v:
                raise InvalidNetworkError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise InvalidNetworkError(
                    f"edge ({u}, {v}) references a node outside 0..{num_nodes - 1}"
                )
            if not 0 < cap < math.inf:
                raise InvalidNetworkError(
                    f"edge ({u}, {v}) capacity must be positive and finite, got {cap}"
                )
            key = (min(u, v), max(u, v))
            if key in index_of:
                raise InvalidNetworkError(f"duplicate edge ({u}, {v})")
            index_of[key] = len(endpoints)
            endpoints.append(key)
            capacities.append(cap)

        if not endpoints:
            raise InvalidNetworkError("a physical network must have at least one edge")

        self._edge_endpoints = np.asarray(endpoints, dtype=np.int64)
        self._capacities = np.asarray(capacities, dtype=float)
        self._edge_index = index_of

        if node_positions is not None:
            pos = np.asarray(node_positions, dtype=float)
            if pos.shape != (num_nodes, 2):
                raise InvalidNetworkError(
                    f"node_positions must have shape ({num_nodes}, 2), got {pos.shape}"
                )
            self._positions: Optional[np.ndarray] = pos
        else:
            self._positions = None

        if node_levels is not None:
            levels = np.asarray(node_levels, dtype=np.int64)
            if levels.shape != (num_nodes,):
                raise InvalidNetworkError(
                    f"node_levels must have shape ({num_nodes},), got {levels.shape}"
                )
            self._levels: Optional[np.ndarray] = levels
        else:
            self._levels = None

        # Adjacency as (neighbor, edge_index) lists, built once.
        adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(num_nodes)]
        for eid, (u, v) in enumerate(endpoints):
            adjacency[u].append((v, eid))
            adjacency[v].append((u, eid))
        self._adjacency = [tuple(neigh) for neigh in adjacency]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of vertices."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._edge_endpoints.shape[0])

    @property
    def capacities(self) -> np.ndarray:
        """Read-only view of the per-edge capacity vector ``c_e``."""
        view = self._capacities.view()
        view.flags.writeable = False
        return view

    @property
    def edge_endpoints(self) -> np.ndarray:
        """``(num_edges, 2)`` array of edge endpoints with ``u < v``."""
        view = self._edge_endpoints.view()
        view.flags.writeable = False
        return view

    @property
    def node_positions(self) -> Optional[np.ndarray]:
        """Node coordinates if the generator provided them, else ``None``."""
        return None if self._positions is None else self._positions.copy()

    @property
    def node_levels(self) -> Optional[np.ndarray]:
        """Per-node hierarchy levels if provided, else ``None``."""
        return None if self._levels is None else self._levels.copy()

    def nodes(self) -> range:
        """Iterate over vertex identifiers."""
        return range(self._num_nodes)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` tuples with ``u < v``."""
        for u, v in self._edge_endpoints:
            yield int(u), int(v)

    def edge_id(self, u: int, v: int) -> int:
        """Return the integer index of edge ``(u, v)``.

        Raises :class:`InvalidNetworkError` if the edge does not exist.
        """
        try:
            return self._edge_index[pair_key(u, v)]
        except KeyError as exc:
            raise InvalidNetworkError(f"edge ({u}, {v}) does not exist") from exc

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        return pair_key(u, v) in self._edge_index

    def capacity(self, u: int, v: int) -> float:
        """Capacity of edge ``(u, v)``."""
        return float(self._capacities[self.edge_id(u, v)])

    def neighbors(self, u: int) -> Tuple[Tuple[int, int], ...]:
        """Neighbours of ``u`` as ``(neighbor, edge_index)`` pairs."""
        u = node_id(u)
        if not (0 <= u < self._num_nodes):
            raise InvalidNetworkError(f"node {u} outside 0..{self._num_nodes - 1}")
        return self._adjacency[u]

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        return len(self.neighbors(u))

    def degrees(self) -> np.ndarray:
        """Degree of every vertex as an integer array."""
        return np.asarray([len(a) for a in self._adjacency], dtype=np.int64)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the graph is connected (BFS from vertex 0)."""
        seen = np.zeros(self._num_nodes, dtype=bool)
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v, _eid in self._adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == self._num_nodes

    def validate(self) -> None:
        """Re-run structural validation; raises on inconsistency."""
        if self._capacities.min() <= 0:
            raise InvalidNetworkError("all capacities must be positive")
        if self._edge_endpoints.shape[0] != self._capacities.shape[0]:
            raise InvalidNetworkError("edge/capacity length mismatch")

    # ------------------------------------------------------------------
    # conversions and derived structures
    # ------------------------------------------------------------------
    def _csr_structure(self):
        """Cached CSR adjacency *structure*: ``(indptr, indices, perm)``.

        The sparsity pattern of the weighted adjacency matrix depends only
        on the (immutable) edge set, so the expensive part of the old
        per-call ``coo_matrix(...).tocsr()`` conversion — the row/column
        sort — is paid exactly once.  ``perm`` maps each CSR data slot to
        the edge index whose weight it holds, so re-weighting the matrix
        is a single fancy-index gather into ``.data``.
        """
        cached = getattr(self, "_csr_cache", None)
        if cached is not None:
            return cached
        from scipy.sparse import coo_matrix

        u = self._edge_endpoints[:, 0]
        v = self._edge_endpoints[:, 1]
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        # Seed the conversion with each entry's COO position: the graph is
        # simple (no duplicates to sum), so after ``tocsr`` the data array
        # holds the position permutation, and position ``p`` carries the
        # weight of edge ``p % num_edges`` (data was ``[w, w]`` stacked).
        positions = np.arange(rows.shape[0], dtype=np.int64)
        template = coo_matrix(
            (positions, (rows, cols)), shape=(self._num_nodes, self._num_nodes)
        ).tocsr()
        perm = template.data % self.num_edges
        self._csr_cache = (template.indptr, template.indices, perm)
        return self._csr_cache

    def _csr_weights(self, weights: Optional[np.ndarray]) -> np.ndarray:
        """Validated per-edge weight vector (all-ones for ``None``)."""
        if weights is None:
            return np.ones(self.num_edges, dtype=float)
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.num_edges,):
            raise InvalidNetworkError(
                f"weights must have shape ({self.num_edges},), got {w.shape}"
            )
        return w

    def adjacency_matrix(self, weights: Optional[np.ndarray] = None):
        """Sparse symmetric adjacency matrix (CSR).

        Built from the cached structure (:meth:`_csr_structure`), so only
        the data array is computed per call; the result is bit-identical
        to a from-scratch ``coo_matrix(...).tocsr()`` conversion.  Each
        call returns a fresh matrix with its own index arrays — callers
        may mutate it freely.

        Parameters
        ----------
        weights:
            Optional per-edge weights; defaults to all-ones (hop metric).
        """
        from scipy.sparse import csr_matrix

        w = self._csr_weights(weights)
        indptr, indices, perm = self._csr_structure()
        return csr_matrix(
            (w[perm], indices.copy(), indptr.copy()),
            shape=(self._num_nodes, self._num_nodes),
        )

    def csr_adjacency_inplace(self, weights: Optional[np.ndarray] = None):
        """Shared scratch CSR adjacency, re-weighted in place (hot path).

        Returns the same matrix object on every call with its ``.data``
        refreshed from ``weights`` — zero allocations beyond the first
        call, no conversion, no sort.  The matrix is *invalidated by the
        next call*: callers must consume it immediately, holding one lock
        across the refresh and the read when threads share the network
        (the Dijkstra wrapper does), and never hand it out or mutate its
        structure.

        Both orientations of every edge are stored, ``(u, v)`` and
        ``(v, u)``, and both slots are filled from the same ``weights``
        entry, so their values are bitwise equal.  The Dijkstra wrapper
        relies on that: on this matrix scipy's directed search is the
        undirected one, without the per-call transpose.
        """
        from scipy.sparse import csr_matrix

        w = self._csr_weights(weights)
        indptr, indices, perm = self._csr_structure()
        scratch = getattr(self, "_csr_scratch", None)
        if scratch is None:
            scratch = csr_matrix(
                (w[perm], indices, indptr),
                shape=(self._num_nodes, self._num_nodes),
            )
            self._csr_scratch = scratch
        else:
            np.take(w, perm, out=scratch.data)
        return scratch

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` with ``capacity`` attributes."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._num_nodes))
        for eid, (u, v) in enumerate(self._edge_endpoints):
            g.add_edge(int(u), int(v), capacity=float(self._capacities[eid]), index=eid)
        return g

    @classmethod
    def from_networkx(cls, graph, default_capacity: float = 1.0) -> "PhysicalNetwork":
        """Build a network from a networkx graph.

        Node labels are relabelled to ``0..n-1`` in sorted order; edge
        ``capacity`` attributes are honoured when present.
        """
        nodes = sorted(graph.nodes())
        relabel = {node: i for i, node in enumerate(nodes)}
        edges = []
        for u, v, data in graph.edges(data=True):
            cap = float(data.get("capacity", default_capacity))
            edges.append((relabel[u], relabel[v], cap))
        return cls(len(nodes), edges, default_capacity=default_capacity)

    def with_capacities(self, capacities: Sequence[float]) -> "PhysicalNetwork":
        """Return a copy of this network with a new capacity vector."""
        caps = np.asarray(capacities, dtype=float)
        if caps.shape != (self.num_edges,):
            raise InvalidNetworkError(
                f"capacities must have shape ({self.num_edges},), got {caps.shape}"
            )
        edges = [
            (int(u), int(v), float(c))
            for (u, v), c in zip(self._edge_endpoints, caps)
        ]
        return PhysicalNetwork(
            self._num_nodes,
            edges,
            node_positions=self._positions,
            node_levels=self._levels,
        )

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PhysicalNetwork(num_nodes={self._num_nodes}, "
            f"num_edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhysicalNetwork):
            return NotImplemented
        if self._num_nodes != other._num_nodes or self.num_edges != other.num_edges:
            return False
        mine = sorted(
            (int(u), int(v), float(c))
            for (u, v), c in zip(self._edge_endpoints, self._capacities)
        )
        theirs = sorted(
            (int(u), int(v), float(c))
            for (u, v), c in zip(other._edge_endpoints, other._capacities)
        )
        return all(
            a[0] == b[0] and a[1] == b[1] and abs(a[2] - b[2]) < 1e-9
            for a, b in zip(mine, theirs)
        )

    def __hash__(self) -> int:
        return hash((self._num_nodes, self.num_edges))
