"""Arbitrary (dynamic) unicast routing.

Section V of the paper asks how much fixed IP routing constrains the
achievable capacity utilization.  To answer it, the overlay tree is
redefined so that each tree link may use *any* unicast path, and the
algorithms pick, at every oracle invocation, the shortest path under the
current exponential length function.  This class implements exactly that:
every call recomputes shortest paths with the supplied per-edge lengths.

Every answer comes from one retained Dijkstra, :meth:`query`, returning a
:class:`~repro.routing.shortest_path.ShortestPathQuery` that holds both
distances and predecessors.  An oracle call derives its MST weights
(:meth:`pair_lengths_from_query`, a condensed pair vector) and
reconstructs the chosen tree's paths from the same run;
:meth:`pair_lengths` and :meth:`paths_for_pairs` are each one such query.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.routing.base import PairKey, RoutingModel, pair_key
from repro.routing.paths import UnicastPath
from repro.routing.shortest_path import ShortestPathQuery
from repro.topology.network import PhysicalNetwork


class DynamicRouting(RoutingModel):
    """Shortest-path routing under the caller-supplied length function."""

    def __init__(self, network: PhysicalNetwork) -> None:
        super().__init__(network)
        # Cross-query UnicastPath cache keyed by node sequence (shared
        # with every ShortestPathQuery this model issues).  The sequence
        # fully determines the path — edge ids included — and paths are
        # immutable, so cache hits are bit-identical to fresh builds.
        # Unbounded, like the oracle's tree memoization and for the same
        # reason: runs concentrate on a handful of distinct paths, so
        # the population is bounded by distinct shortest paths actually
        # chosen, not by iteration count.
        self._paths_by_nodes: Dict[tuple, UnicastPath] = {}

    @property
    def is_dynamic(self) -> bool:
        return True

    def pair_lengths(
        self,
        members: Sequence[int],
        edge_lengths: np.ndarray,
    ) -> np.ndarray:
        """Shortest-path distances of the member pairs under the lengths, condensed."""
        members = list(members)
        return self.pair_lengths_from_query(self.query(members, edge_lengths), members)

    def paths_for_pairs(
        self,
        pairs: Sequence[PairKey],
        edge_lengths: Optional[np.ndarray] = None,
    ) -> Dict[PairKey, UnicastPath]:
        """Shortest paths for the given pairs under ``edge_lengths``.

        ``edge_lengths=None`` falls back to the hop metric, which makes the
        dynamic model coincide with fixed IP routing for a fresh network.
        """
        canonical = [pair_key(*p) for p in pairs]
        sources = list(dict.fromkeys(u for u, v in canonical if u != v))
        return self.query(sources, edge_lengths).paths_for_pairs(canonical)

    def query(
        self,
        sources: Sequence[int],
        edge_lengths: Optional[np.ndarray] = None,
    ) -> ShortestPathQuery:
        """One retained Dijkstra from ``sources`` under ``edge_lengths``.

        The returned query answers both the member-pair distances and the
        path reconstructions of a dynamic oracle call, so the whole call
        costs exactly one Dijkstra invocation and zero extra CSR builds.
        """
        return ShortestPathQuery.run(
            self._network, sources, edge_lengths, path_cache=self._paths_by_nodes
        )

    def pair_lengths_from_query(
        self, query: ShortestPathQuery, members: Sequence[int]
    ) -> np.ndarray:
        """The member-pair distances of a retained query, condensed.

        This is :meth:`pair_lengths`'s vector
        (:func:`~repro.routing.base.pair_indices` order), the form the
        oracle's Prim takes; see
        :meth:`~repro.routing.shortest_path.ShortestPathQuery.pair_distances`.
        ``query`` may have more sources than ``members`` (the batched
        front's union run): scipy computes each Dijkstra source row
        independently, so its rows equal those of a run over ``members``
        alone.
        """
        return query.pair_distances(members)
