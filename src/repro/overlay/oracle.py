"""The minimum overlay spanning tree oracle.

Every algorithm in the paper (MaxFlow, MaxConcurrentFlow, the randomized
rounding pre-step, and Online-MinCongestion) repeatedly asks the same
question:

    *Given the current per-edge length function ``d_e``, which spanning
    tree of session ``S_i``'s overlay graph has minimum total length?*

Under fixed IP routing the overlay edge lengths are linear in ``d_e``
through a fixed pair-by-edge incidence matrix, so evaluating them is a
single sparse mat-vec.  Under arbitrary (dynamic) routing, the overlay
edge between two members is the *shortest* path under ``d_e``
(Section V-B of the paper): the oracle runs **one** multi-source
Dijkstra from the members, keeps its distance *and* predecessor rows
(:class:`~repro.routing.shortest_path.ShortestPathQuery`), weights the
overlay MST from the distances, and reconstructs only the ``|S| - 1``
chosen paths from the same predecessor rows — the same trees a
distances-only run followed by one single-source Dijkstra per tree
source would give (scipy computes every source row independently).
Under both routings Prim takes the pair lengths as they come, one
condensed vector in :func:`~repro.routing.base.member_pairs` order, so
no call fills an ``n x n`` weight matrix.

The oracle also counts its own invocations; the paper's Tables II and IV
report running time as "number of MST operations", and we reproduce that
column from these counters.

**Tree memoization.**  The paper's "number of trees" tables show that a
run concentrates its flow on a handful of distinct trees even though it
performs thousands of MST operations, so the same tree is rebuilt over
and over.  Under fixed IP routing the tree is fully determined by the
MST's overlay-edge index pairs; under dynamic routing it is determined by
those pairs plus the node sequences of the chosen shortest paths.  The
oracle keys a per-session cache on exactly that, so repeated trees skip
:meth:`OverlayTree.from_paths` (the union-find spanning-tree check and
the ``np.add.at`` usage accumulation) entirely.  ``call_count`` — the
paper's "MST operations" metric — is incremented on cache hits exactly as
on misses, and cached results are bit-identical to freshly built ones.
It also counts the answers the batched front reuses without asking the
oracle again (:meth:`MinimumOverlayTreeOracle.count_reused_answer`), so
Prim runs are ``cache_hits + cache_misses`` and ``call_count`` is the
number of answers given.

The ``select_tree*`` methods return the chosen tree; the
``minimum_tree*`` methods wrap them and add the tree's length, the
classic ``(tree, length)`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.overlay.mst import minimum_spanning_tree_pairs
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.routing.base import RoutingModel, member_pairs, pair_key
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class OracleResult:
    """Result of one minimum-overlay-spanning-tree computation.

    Attributes
    ----------
    tree:
        The minimum overlay spanning tree found.
    length:
        Its total length ``sum_e n_e(t) d_e`` under the queried lengths.
    """

    tree: OverlayTree
    length: float


class MinimumOverlayTreeOracle:
    """Minimum overlay spanning tree computation for one session.

    Parameters
    ----------
    session:
        The overlay session whose trees are being optimised over.
    routing:
        Either a :class:`FixedIPRouting` (paper Sections II–IV) or a
        :class:`DynamicRouting` (Section V) instance.
    """

    def __init__(self, session: Session, routing: RoutingModel) -> None:
        session.validate_against(routing.network)
        self._session = session
        self._routing = routing
        self._network = routing.network
        self._members = list(session.members)
        self._call_count = 0
        self._tree_cache: Dict[Tuple, OverlayTree] = {}
        self._cache_hits = 0
        self._cache_misses = 0

        if isinstance(routing, FixedIPRouting):
            self._fixed = True
            self._incidence = routing.incidence_for_members(self._members)
            self._paths = routing.paths_for_pairs(member_pairs(self._members))
        elif isinstance(routing, DynamicRouting):
            self._fixed = False
            self._incidence = None
            self._paths = None
        else:
            raise ConfigurationError(
                f"unsupported routing model {type(routing).__name__}"
            )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def session(self) -> Session:
        """The session this oracle serves."""
        return self._session

    @property
    def routing(self) -> RoutingModel:
        """The routing model in effect."""
        return self._routing

    @property
    def call_count(self) -> int:
        """Number of minimum-spanning-tree operations performed so far."""
        return self._call_count

    def count_reused_answer(self) -> None:
        """Count an answer reused from an earlier query as one MST operation.

        The batched front calls this when none of the session's route
        lengths changed since its last answer, so the same tree and
        length stand without running Prim — counted like a tree-cache
        hit, but outside :attr:`cache_hits`.
        """
        self._call_count += 1

    @property
    def cache_hits(self) -> int:
        """Oracle calls that reused a previously constructed tree."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Oracle calls that had to construct a new tree."""
        return self._cache_misses

    def cache_info(self) -> Dict[str, int]:
        """Memoization counters (hits, misses, distinct cached trees)."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": len(self._tree_cache),
        }

    def clear_tree_cache(self) -> None:
        """Drop all cached trees and reset the hit/miss counters."""
        self._tree_cache.clear()
        self._cache_hits = 0
        self._cache_misses = 0

    @property
    def is_fixed(self) -> bool:
        """Whether the routing model is fixed (precomputable incidence)."""
        return self._fixed

    @property
    def members(self) -> List[int]:
        """The session's members, in oracle (session) order.

        The dynamic batched front unions these across oracles to run one
        shared Dijkstra per all-session query round.
        """
        return list(self._members)

    @property
    def incidence(self):
        """The sparse pair-by-edge incidence matrix (fixed routing only).

        The :class:`~repro.core.engine.batch.BatchedOracleFront` stacks
        these across sessions to serve all-session query rounds with one
        mat-vec.
        """
        if not self._fixed:
            raise ConfigurationError(
                "the incidence matrix exists only under fixed routing"
            )
        return self._incidence

    def max_route_length(self) -> int:
        """``U`` — the longest unicast route (in hops) among member pairs."""
        return self._routing.max_route_hops(self._members)

    def covered_edges(self) -> np.ndarray:
        """Physical edges on this session's member-pair routes.

        Fixed routes, or the hop-metric routes under dynamic routing.
        """
        return self._routing.covered_edges(self._members)

    # ------------------------------------------------------------------
    # the oracle
    # ------------------------------------------------------------------
    def minimum_tree(self, edge_lengths: np.ndarray) -> OracleResult:
        """Minimum overlay spanning tree under ``edge_lengths``.

        This is the operation counted in the paper's "running time
        (number of MST operations)" rows: :meth:`select_tree` plus the
        tree's length.
        """
        lengths = np.asarray(edge_lengths, dtype=float)
        tree = self.select_tree(lengths)
        return OracleResult(tree=tree, length=tree.length(lengths))

    def select_tree(self, edge_lengths: np.ndarray) -> OverlayTree:
        """The minimum tree under ``edge_lengths``, without its length.

        Fixed routing evaluates the pair lengths as one incidence
        mat-vec; dynamic routing runs one retained Dijkstra from the
        members.  Counts as one MST operation.
        """
        lengths = np.asarray(edge_lengths, dtype=float)
        if self._fixed:
            return self.select_tree_precomputed(self._incidence @ lengths)
        return self.select_tree_from_query(self._routing.query(self._members, lengths))

    def select_tree_from_query(self, query) -> OverlayTree:
        """Tree-only form of :meth:`minimum_tree_from_query`.

        ``query`` is a
        :class:`~repro.routing.shortest_path.ShortestPathQuery` whose
        sources include every session member — either this oracle's own
        per-call run or the batched front's shared union run.  Distances
        weight the overlay MST; the chosen tree's paths are rebuilt from
        the same predecessor rows.  Counts as one MST operation, exactly
        like :meth:`minimum_tree`.
        """
        if self._fixed:
            raise ConfigurationError(
                "retained Dijkstra queries apply to dynamic routing only"
            )
        self._call_count += 1
        members = self._members
        pair_lengths = self._routing.pair_lengths_from_query(query, members)
        tree_index_pairs = minimum_spanning_tree_pairs(pair_lengths)
        overlay_edges = [
            pair_key(members[i], members[j]) for i, j in tree_index_pairs
        ]
        paths = query.paths_for_pairs(overlay_edges)
        return self._dynamic_tree(overlay_edges, paths)

    def minimum_tree_from_query(
        self, query, edge_lengths: np.ndarray
    ) -> OracleResult:
        """Dynamic-routing oracle served from a retained Dijkstra query.

        :meth:`select_tree_from_query` plus the tree's length under
        ``edge_lengths`` — the classic ``(tree, length)`` contract.
        """
        tree = self.select_tree_from_query(query)
        lengths = np.asarray(edge_lengths, dtype=float)
        return OracleResult(tree=tree, length=tree.length(lengths))

    def _dynamic_tree(self, overlay_edges, paths) -> OverlayTree:
        """Memoized dynamic-routing tree construction."""
        # Under dynamic routing the overlay edges alone do not pin down
        # the physical realisation — include the path node sequences in
        # the key.  Sorted, so the key is independent of Prim's
        # discovery order.
        key = tuple(sorted((pk, paths[pk].nodes) for pk in overlay_edges))
        return self._cached_tree(
            key,
            lambda: OverlayTree.from_paths(
                self._members, overlay_edges, paths, self._network.num_edges
            ),
        )

    def select_tree_precomputed(self, pair_lengths: np.ndarray) -> OverlayTree:
        """Fixed-routing tree selection given precomputed pair lengths.

        ``pair_lengths`` must equal ``incidence @ edge_lengths`` (row
        per :func:`~repro.routing.base.member_pairs` entry) — the
        batched oracle front computes it for all sessions in one stacked
        mat-vec and hands each oracle its slice.  Counts as one MST
        operation, exactly like :meth:`minimum_tree`.
        """
        if not self._fixed:
            raise ConfigurationError(
                "precomputed pair lengths apply to fixed routing only"
            )
        self._call_count += 1
        members = self._members
        tree_index_pairs = minimum_spanning_tree_pairs(pair_lengths)
        # Sort so the key is independent of Prim's discovery order: the
        # same tree reached from different length functions must hit the
        # same cache entry.  Fixed routes pin down the physical
        # realisation, so the index pairs alone suffice.
        return self._cached_tree(
            tuple(sorted(tree_index_pairs)),
            lambda: OverlayTree.from_paths(
                members,
                [pair_key(members[i], members[j]) for i, j in tree_index_pairs],
                self._paths,
                self._network.num_edges,
            ),
        )

    def minimum_tree_precomputed(
        self, pair_lengths: np.ndarray, edge_lengths: np.ndarray
    ) -> OracleResult:
        """Fixed-routing oracle given precomputed overlay pair lengths.

        :meth:`select_tree_precomputed` plus the tree's length under
        ``edge_lengths`` — the classic ``(tree, length)`` contract.
        :meth:`OverlayTree.length` converts ``edge_lengths`` itself.
        """
        tree = self.select_tree_precomputed(pair_lengths)
        return OracleResult(tree=tree, length=tree.length(edge_lengths))

    def _cached_tree(self, key: Tuple, build) -> OverlayTree:
        """Memoized tree construction shared by both routing branches.

        A hit returns the cached object; a miss builds, stores and
        counts.  The builder runs only on a miss, so the fixed-routing
        hot path never recomputes overlay pair keys for cached trees.
        """
        tree = self._tree_cache.get(key)
        if tree is not None:
            self._cache_hits += 1
            return tree
        tree = build()
        self._tree_cache[key] = tree
        self._cache_misses += 1
        return tree

    def normalized_length(self, result: OracleResult, max_session_size: int) -> float:
        """Paper's normalised tree length weighted by receiver counts.

        ``d(t) * (|Smax| - 1) / (|S_i| - 1)`` — the quantity the MaxFlow
        algorithm compares across sessions (line 6 of Table I).
        """
        if max_session_size < 2:
            raise ConfigurationError("max_session_size must be at least 2")
        return result.length * (max_session_size - 1) / (self._session.size - 1)


def build_oracles(
    sessions: Sequence[Session], routing: RoutingModel
) -> List[MinimumOverlayTreeOracle]:
    """Construct one oracle per session over a shared routing model."""
    return [MinimumOverlayTreeOracle(s, routing) for s in sessions]
