"""Fixed IP (shortest-path) routing.

Models static IP routing as used in Sections II–IV of the paper: the
route between two end systems is the hop-count shortest path in the
physical topology, computed once and never changed afterwards, regardless
of how congested its links become.  The flow algorithms only vary the
*rates* they push over these fixed routes.

For efficiency the class caches, per set of overlay members, a sparse
pair-by-edge incidence matrix so that evaluating the lengths of all
overlay edges under a new length function is a single sparse
matrix-vector product.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.routing.base import PairKey, RoutingModel, member_pairs, pair_key
from repro.routing.paths import UnicastPath
from repro.routing.shortest_path import ShortestPathQuery
from repro.topology.network import PhysicalNetwork, node_id


class FixedIPRouting(RoutingModel):
    """Hop-count shortest-path routing with per-pair route caching."""

    def __init__(self, network: PhysicalNetwork) -> None:
        super().__init__(network)
        self._path_cache: Dict[PairKey, UnicastPath] = {}
        self._incidence_cache: Dict[Tuple[int, ...], csr_matrix] = {}

    @property
    def is_dynamic(self) -> bool:
        return False

    def paths_for_pairs(
        self,
        pairs: Sequence[PairKey],
        edge_lengths: Optional[np.ndarray] = None,
    ) -> Dict[PairKey, UnicastPath]:
        """Fixed routes for the given pairs (``edge_lengths`` is ignored).

        Every route not cached yet comes from one multi-source hop-metric
        Dijkstra, each from its pair's smaller node.
        """
        canonical = [pair_key(*p) for p in pairs]
        missing = [key for key in canonical if key not in self._path_cache]
        if missing:
            sources = list(dict.fromkeys(u for u, v in missing if u != v))
            query = ShortestPathQuery.run(self._network, sources)
            self._path_cache.update(query.paths_for_pairs(missing))
        return {key: self._path_cache[key] for key in canonical}

    def incidence_for_members(self, members: Sequence[int]) -> csr_matrix:
        """Sparse (num_pairs x num_edges) 0/1 incidence of fixed routes.

        Row ``r`` corresponds to the ``r``-th pair returned by
        :func:`~repro.routing.base.member_pairs`; entry ``(r, e)`` is 1
        when physical edge ``e`` lies on the fixed route of that pair.
        Cached per member tuple because the FPTAS evaluates it thousands
        of times.
        """
        key = tuple(node_id(m) for m in members)
        cached = self._incidence_cache.get(key)
        if cached is not None:
            return cached
        pairs = member_pairs(members)
        paths = self.paths_for_pairs(pairs)
        rows: List[int] = []
        cols: List[int] = []
        for r, pk in enumerate(pairs):
            for eid in paths[pk].edge_ids:
                rows.append(r)
                cols.append(int(eid))
        data = np.ones(len(rows), dtype=float)
        matrix = csr_matrix(
            (data, (rows, cols)), shape=(len(pairs), self._network.num_edges)
        )
        self._incidence_cache[key] = matrix
        return matrix

    def pair_lengths(
        self,
        members: Sequence[int],
        edge_lengths: np.ndarray,
    ) -> np.ndarray:
        """Fixed-route lengths of the member pairs, condensed."""
        members = list(members)
        if len(members) < 2:
            return np.zeros(0, dtype=float)
        incidence = self.incidence_for_members(members)
        return incidence @ np.asarray(edge_lengths, dtype=float)
