"""Routing model interface.

A routing model answers one question for the flow algorithms: *given a set
of overlay nodes and the current per-edge length function, what unicast
route and what route length connects each pair?*  Fixed IP routing answers
with routes precomputed under the hop metric; dynamic routing answers with
shortest paths under the current lengths.
"""

from __future__ import annotations

import abc
import functools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.paths import UnicastPath
from repro.topology.network import PairKey, PhysicalNetwork, node_id, pair_key


def member_pairs(members: Sequence[int]) -> List[PairKey]:
    """Canonical pairs of a member set, in ``np.triu_indices`` order.

    Entry ``r`` pairs ``members[i]`` with ``members[j]`` for the ``r``-th
    ``i < j``: the row order of the fixed-routing incidence matrix and
    the order of every condensed pair-length vector.
    """
    members = list(members)
    return [
        pair_key(members[i], members[j])
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ]


@functools.lru_cache(maxsize=None)
def pair_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, read-only and computed once per ``n``.

    Pair ``r`` of a condensed pair-length vector joins node
    ``first[r]`` to node ``second[r]``.
    """
    first, second = np.triu_indices(n, k=1)
    first.flags.writeable = False
    second.flags.writeable = False
    return first, second


class RoutingModel(abc.ABC):
    """Maps overlay node pairs to unicast routes in the physical network."""

    def __init__(self, network: PhysicalNetwork) -> None:
        self._network = network

    @property
    def network(self) -> PhysicalNetwork:
        """The physical network this model routes over."""
        return self._network

    @property
    @abc.abstractmethod
    def is_dynamic(self) -> bool:
        """Whether routes depend on the current length function."""

    @abc.abstractmethod
    def pair_lengths(
        self,
        members: Sequence[int],
        edge_lengths: np.ndarray,
    ) -> np.ndarray:
        """Length of the route between every pair of ``members``, condensed.

        Entry ``r`` is the length, under ``edge_lengths``, of the unicast
        route this model assigns to the ``r``-th pair of
        :func:`member_pairs` (``np.triu_indices`` order), the vector the
        oracle's Prim takes.  Fewer than two members give an empty vector.
        """

    @abc.abstractmethod
    def paths_for_pairs(
        self,
        pairs: Sequence[PairKey],
        edge_lengths: Optional[np.ndarray] = None,
    ) -> Dict[PairKey, UnicastPath]:
        """Concrete unicast routes for the given (canonical) node pairs.

        For fixed IP routing the ``edge_lengths`` argument is ignored; for
        dynamic routing it selects the paths.  The returned dictionary is
        keyed by canonical pair.
        """

    def max_route_hops(self, members: Sequence[int]) -> int:
        """Longest route (in hops) among all member pairs under hop metric.

        Used to compute the FPTAS initialisation constant ``U`` (the
        length of the longest unicast route) from the paper's Lemma 3.
        """
        members = list(dict.fromkeys(node_id(m) for m in members))
        if len(members) < 2:
            return 0
        hop_lengths = self.pair_lengths(members, np.ones(self._network.num_edges))
        finite = hop_lengths[np.isfinite(hop_lengths)]
        return int(round(float(finite.max()))) if finite.size else 0

    def covered_edges(self, members: Sequence[int]) -> np.ndarray:
        """Indices of physical edges on at least one member-pair route.

        The "physical links covered by the overlay" of the paper's
        link-utilization figures (Figs. 4, 9, 14) and edges-per-node
        statistic (Fig. 13).  Dynamic routing answers with its hop-metric
        routes, which are the fixed IP routes.
        """
        used = np.zeros(self._network.num_edges, dtype=bool)
        for path in self.paths_for_pairs(member_pairs(members)).values():
            used[path.edge_ids] = True
        return np.flatnonzero(used)
