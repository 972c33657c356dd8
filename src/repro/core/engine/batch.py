"""The batched oracle front: all sessions' tree queries in one pass.

Under fixed IP routing, each oracle evaluates its overlay pair lengths
as ``incidence @ lengths`` — a sparse mat-vec per session per query
round.  When an algorithm queries *every* session against the *same*
length vector (MaxFlow's per-iteration scan over all sessions), those
mat-vecs are one block-stacked product: stack the per-session incidence
matrices once, multiply by the shared length array once per round, and
hand each oracle its row slice.

Under dynamic routing, each oracle's dominant cost is a multi-source
Dijkstra from its members.  Sessions overlap, and every oracle in a
round queries the *same* length vector — so the front runs a **single**
Dijkstra from the union of all sessions' members per round (weights
validated once, one in-place CSR refresh) and hands each oracle its
distance/predecessor row slices through a shared retained
:class:`~repro.routing.shortest_path.ShortestPathQuery`.

Both modes are pure wall-clock optimisations.  CSR mat-vec computes
each row independently over its stored nonzeros, and ``vstack``
preserves every row's data order, so the sliced pair lengths are
bit-identical to the per-oracle products; scipy's Dijkstra likewise
computes every source row independently, so the union run's rows equal
the rows each oracle's own run would produce — same rows, same MST
weights, same reconstructed paths (asserted in the equivalence suites).
Oracle sets the front cannot serve (mixed routing models or distinct
networks) fall back to the per-session loop transparently.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix, vstack

from repro.overlay.oracle import MinimumOverlayTreeOracle, OracleResult
from repro.routing.dynamic import DynamicRouting


class BatchedOracleFront:
    """Serves all-session oracle query rounds in one vectorised pass."""

    def __init__(self, oracles: Sequence[MinimumOverlayTreeOracle]) -> None:
        self._oracles = list(oracles)
        self._mode: Optional[str] = None
        self._stacked: csr_matrix = None
        self._slices: List[Tuple[int, int]] = []
        self._routing: Optional[DynamicRouting] = None
        self._union_members: Tuple[int, ...] = ()
        if self._oracles and all(o.is_fixed for o in self._oracles):
            matrices = [o.incidence for o in self._oracles]
            self._stacked = vstack(matrices, format="csr")
            offset = 0
            for matrix in matrices:
                rows = matrix.shape[0]
                self._slices.append((offset, offset + rows))
                offset += rows
            self._mode = "fixed"
        elif self._oracles and self._dynamic_batchable(self._oracles):
            self._routing = self._oracles[0].routing
            union = set()
            for oracle in self._oracles:
                union.update(oracle.members)
            self._union_members = tuple(sorted(union))
            self._mode = "dynamic"

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
    def batched(self) -> bool:
        """Whether rounds are served by a vectorised pass (either mode)."""
        return self._mode is not None

    @property
    def mode(self) -> Optional[str]:
        """``"fixed"`` (stacked mat-vec), ``"dynamic"`` (union Dijkstra),
        or ``None`` (per-oracle fallback)."""
        return self._mode

    def supports(self, indices: Sequence[int]) -> bool:
        """Whether a round over ``indices`` can use the batched pass.

        Only full-width rounds qualify: a partial round's stacked
        product (or union Dijkstra) would compute pair lengths for
        sessions nobody asked about.
        """
        return self._mode is not None and len(indices) == len(self._oracles)

    def query(
        self,
        indices: Sequence[int],
        edge_lengths: np.ndarray,
    ) -> List[Tuple[int, OracleResult]]:
        """Minimum trees for the requested oracles under shared lengths.

        Results come back in request order, as ``(index, result)`` pairs;
        rounds :meth:`supports` cannot serve fall back to the per-oracle
        loop.
        """
        lengths = np.asarray(edge_lengths, dtype=float)
        if self.supports(indices):
            if self._mode == "fixed":
                pair_lengths = self._stacked @ lengths
                return [
                    (
                        index,
                        self._oracles[index].minimum_tree_precomputed(
                            pair_lengths[slice(*self._slices[index])], lengths
                        ),
                    )
                    for index in indices
                ]
            # Dynamic mode: one Dijkstra from the union of all sessions'
            # members — weight validation and the in-place CSR refresh
            # happen once per round, and overlapping members' rows are
            # computed once and shared across every oracle.
            shared = self._routing.query(self._union_members, lengths)
            return [
                (index, self._oracles[index].minimum_tree_from_query(shared, lengths))
                for index in indices
            ]
        return [(index, self._oracles[index].minimum_tree(lengths)) for index in indices]
