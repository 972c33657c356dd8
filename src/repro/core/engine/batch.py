"""The batched oracle front: all sessions' tree queries in one pass.

Under fixed IP routing, each oracle evaluates its overlay pair lengths
as ``incidence @ lengths`` — a sparse mat-vec per session per query
round.  When an algorithm queries *every* session against the *same*
length vector (MaxFlow's per-iteration scan over all sessions), those
mat-vecs are one block-stacked product: stack the per-session incidence
matrices once, multiply by the shared length array once per round, and
hand each oracle its row slice.

Fixed mode also keeps each session's previous answer.  A MaxFlow step
multiplies the lengths of one tree's edges only, so most sessions'
routes miss every changed edge and would answer exactly as before.  The
front snapshots the length array, finds the edges whose values differ
from the snapshot, ORs together the bitmasks of sessions crossing them
(recorded per edge from each incidence matrix's columns), and runs the
oracle only for those sessions; every other session returns last
round's :class:`~repro.overlay.oracle.OracleResult`, counted as one MST
operation through
:meth:`~repro.overlay.oracle.MinimumOverlayTreeOracle.count_reused_answer`.
This is exact: a session's pair lengths, Prim input, tree and tree
length depend only on the lengths of the edges its member-pair routes
cross.  ``OverlayTree.length`` may also read edges outside them, but
with usage 0, so those terms add exactly ``+0.0`` while lengths are
finite, as :class:`~repro.core.lengths.LengthFunction` keeps them.
Comparing values rather than tracking updates also covers
renormalisation, which rescales every edge, and a caller that hands
the front an arbitrary array or mutates one in place between rounds.
A one-session front keeps no snapshot: the routed tree lies inside its
only session's routes, so every round would be dirty.

Under dynamic routing, each oracle's dominant cost is a multi-source
Dijkstra from its members.  Sessions overlap, and every oracle in a
round queries the *same* length vector — so the front runs a **single**
Dijkstra from the union of all sessions' members per round (weights
validated once, one in-place CSR refresh) and hands each oracle its
distance/predecessor row slices through a shared retained
:class:`~repro.routing.shortest_path.ShortestPathQuery`.  Every route
may change with any edge, so dynamic rounds query every session.

Both modes return exactly what the per-oracle loop returns.  CSR
mat-vec computes each row independently over its stored nonzeros, and
``vstack`` preserves every row's data order, so the sliced pair
lengths are bit-identical to the per-oracle products; scipy's Dijkstra
likewise computes every source row independently, so the union run's
rows equal the rows each oracle's own run would produce — same rows,
same MST weights, same reconstructed paths (asserted in the equivalence
suites).  Every solver builds its oracles from one routing model, so the
front serves exactly such sets and rejects any other (mixed routing
models or distinct networks) with :class:`ConfigurationError`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix, vstack

from repro.overlay.oracle import MinimumOverlayTreeOracle, OracleResult
from repro.routing.dynamic import DynamicRouting
from repro.util.errors import ConfigurationError


class BatchedOracleFront:
    """Serves all-session oracle query rounds in one vectorised pass."""

    def __init__(self, oracles: Sequence[MinimumOverlayTreeOracle]) -> None:
        self._oracles = list(oracles)
        self._stacked: csr_matrix = None
        self._slices: List[Tuple[int, int]] = []
        self._routing: Optional[DynamicRouting] = None
        self._union_members: Tuple[int, ...] = ()
        # Fixed-mode answer reuse (sessions > 1 only): per physical edge,
        # the bitmask of sessions whose routes cross it; the lengths of
        # the last round; each session's last answer; the bitmask of
        # sessions whose answer is out of date.
        self._edge_sessions: Optional[List[int]] = None
        self._snapshot: Optional[np.ndarray] = None
        self._answers: List[Optional[OracleResult]] = []
        self._stale = 0
        if self._oracles and all(o.is_fixed for o in self._oracles):
            matrices = [o.incidence for o in self._oracles]
            self._stacked = vstack(matrices, format="csr")
            offset = 0
            for matrix in matrices:
                rows = matrix.shape[0]
                self._slices.append((offset, offset + rows))
                offset += rows
            if len(matrices) > 1:
                edge_sessions = [0] * self._stacked.shape[1]
                for index, matrix in enumerate(matrices):
                    bit = 1 << index
                    for edge in np.unique(matrix.indices).tolist():
                        edge_sessions[edge] |= bit
                self._edge_sessions = edge_sessions
                self._answers = [None] * len(matrices)
                self._stale = (1 << len(matrices)) - 1
            self._mode = "fixed"
        elif self._oracles and self._dynamic_batchable(self._oracles):
            self._routing = self._oracles[0].routing
            union = set()
            for oracle in self._oracles:
                union.update(oracle.members)
            self._union_members = tuple(sorted(union))
            self._mode = "dynamic"
        else:
            raise ConfigurationError(
                "the batched front serves a non-empty oracle set of one "
                "routing model over one network"
            )

    @staticmethod
    def _dynamic_batchable(oracles: Sequence[MinimumOverlayTreeOracle]) -> bool:
        """Whether one union-Dijkstra round can serve every oracle.

        Requires a shared :class:`DynamicRouting` network: the union run
        answers member rows only over one graph.
        """
        first = oracles[0].routing
        if not isinstance(first, DynamicRouting):
            return False
        return all(
            isinstance(o.routing, DynamicRouting)
            and o.routing.network is first.network
            for o in oracles
        )

    @property
    def mode(self) -> str:
        """``"fixed"`` (stacked mat-vec) or ``"dynamic"`` (union Dijkstra)."""
        return self._mode

    def query(
        self,
        indices: Sequence[int],
        edge_lengths: np.ndarray,
    ) -> List[Tuple[int, OracleResult]]:
        """Minimum trees for the requested oracles under shared lengths.

        Results come back in request order, as ``(index, result)`` pairs.
        Each round pays for every oracle's pair lengths (the stacked
        product, or the union Dijkstra), so callers ask for all-session
        rounds.
        """
        lengths = np.asarray(edge_lengths, dtype=float)
        if self._mode == "fixed":
            return self._fixed_round(indices, lengths)
        # Dynamic mode: one Dijkstra from the union of all sessions'
        # members — weight validation and the in-place CSR refresh
        # happen once per round, and overlapping members' rows are
        # computed once and shared across every oracle.
        shared = self._routing.query(self._union_members, lengths)
        return [
            (index, self._oracles[index].minimum_tree_from_query(shared, lengths))
            for index in indices
        ]

    def _fixed_round(
        self, indices: Sequence[int], lengths: np.ndarray
    ) -> List[Tuple[int, OracleResult]]:
        """One stacked mat-vec; Prim only for sessions whose routes changed."""
        pair_lengths = self._stacked @ lengths
        oracles = self._oracles
        slices = self._slices
        if self._edge_sessions is None:
            return [
                (
                    index,
                    oracles[index].minimum_tree_precomputed(
                        pair_lengths[slice(*slices[index])], lengths
                    ),
                )
                for index in indices
            ]
        stale = self._stale
        if self._snapshot is None:
            # A copy: the engine passes LengthFunction.relative, a live
            # view of the array its updates write in place.
            self._snapshot = lengths.copy()
        else:
            changed = np.flatnonzero(lengths != self._snapshot)
            self._snapshot[changed] = lengths[changed]
            edge_sessions = self._edge_sessions
            for edge in changed.tolist():
                stale |= edge_sessions[edge]
            # Stored before any oracle runs: should one raise, the
            # sessions not yet recomputed stay marked.
            self._stale = stale
        answers = self._answers
        out = []
        for index in indices:
            bit = 1 << index
            if stale & bit:
                answers[index] = oracles[index].minimum_tree_precomputed(
                    pair_lengths[slice(*slices[index])], lengths
                )
                stale ^= bit
            else:
                oracles[index].count_reused_answer()
            out.append((index, answers[index]))
        self._stale = stale
        return out
