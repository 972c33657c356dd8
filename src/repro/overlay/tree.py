"""Overlay multicast trees.

An overlay tree ``t`` for session ``S_i`` is a spanning tree of the
complete overlay graph on the session's members.  Each overlay edge maps
to a unicast path in the physical network, so a physical edge ``e`` may be
traversed by several overlay edges of the same tree; ``n_e(t)`` counts
those traversals and is the quantity the capacity constraints of problems
M1/M2 are written in terms of.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.routing.base import PairKey, pair_key
from repro.routing.paths import UnicastPath
from repro.util.errors import InvalidSessionError


# Edge count above which the sparse tree-length evaluation (gather the
# tree's physical-edge lengths, dot with the precomputed usage values)
# beats the dense full-|E| dot product.  Re-measure with
# ``test_tree_length_crossover`` in ``benchmarks/bench_core_ops.py``:
# dense wins below ~1.5k edges (BLAS on a short contiguous vector) and
# the gather wins above; the constant stays at the conservative 2048 —
# mispredicting dense near the boundary costs fractions of a
# microsecond, while the sweep's exact crossover moves with footprint
# size and hardware.
SPARSE_LENGTH_MIN_EDGES = 2048


def _is_spanning_tree(members: Sequence[int], pairs: Sequence[PairKey]) -> bool:
    """Union-find check that ``pairs`` form a spanning tree over ``members``."""
    members = list(members)
    n = len(members)
    if len(pairs) != n - 1:
        return False
    index = {m: i for i, m in enumerate(members)}
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        if u not in index or v not in index:
            return False
        ru, rv = find(index[u]), find(index[v])
        if ru == rv:
            return False
        parent[ru] = rv
    return True


@dataclass(frozen=True)
class OverlayTree:
    """A spanning tree of a session's overlay graph with its physical mapping.

    Attributes
    ----------
    members:
        The session members the tree spans.
    overlay_edges:
        The ``|S| - 1`` overlay edges as canonical member pairs.
    paths:
        Mapping from overlay edge to the unicast path realising it.
    edge_usage:
        Dense vector ``n_e(t)`` over physical edges (traversal counts).
    """

    members: Tuple[int, ...]
    overlay_edges: Tuple[PairKey, ...]
    paths: Mapping[PairKey, UnicastPath] = field(repr=False)
    edge_usage: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        members = tuple(int(m) for m in self.members)
        edges = tuple(pair_key(*p) for p in self.overlay_edges)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "overlay_edges", edges)
        usage = np.asarray(self.edge_usage, dtype=float)
        object.__setattr__(self, "edge_usage", usage)
        if not _is_spanning_tree(members, edges):
            raise InvalidSessionError(
                f"overlay edges {edges} do not form a spanning tree over {members}"
            )
        missing = [p for p in edges if p not in self.paths]
        if missing:
            raise InvalidSessionError(f"missing unicast paths for overlay edges {missing}")
        # Identity caches.  ``edge_usage`` must not be mutated after
        # construction: the accumulators and the oracle's tree cache key
        # off these precomputed values.  ``_usage_values`` is the sparse
        # companion of ``edge_usage`` — ``n_e(t)`` restricted to the
        # edges the tree actually touches — so per-call tree-length and
        # flow-accumulation work scales with the tree's footprint rather
        # than with ``|E|``.
        physical = np.flatnonzero(usage > 0)
        values = usage[physical]
        # ``tolist`` yields the same Python ints and floats as per-entry
        # ``int``/``float`` conversion, so the key and its hash are too.
        canonical = (
            tuple(sorted(edges)),
            tuple(zip(physical.tolist(), values.tolist())),
        )
        object.__setattr__(self, "_physical_edges", physical)
        object.__setattr__(self, "_usage_values", values)
        object.__setattr__(
            self, "_sparse_length", usage.size >= SPARSE_LENGTH_MIN_EDGES
        )
        object.__setattr__(self, "_canonical_key", canonical)
        object.__setattr__(self, "_key_hash", hash(canonical))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(
        cls,
        members: Sequence[int],
        overlay_edges: Sequence[PairKey],
        paths: Mapping[PairKey, UnicastPath],
        num_physical_edges: int,
    ) -> "OverlayTree":
        """Build a tree, deriving ``n_e(t)`` from the supplied paths.

        Raises :class:`InvalidSessionError` when a path crosses an edge
        id outside ``[0, num_physical_edges)``.
        """
        canonical = [pair_key(*p) for p in overlay_edges]
        kept_paths: Dict[PairKey, UnicastPath] = {pk: paths[pk] for pk in canonical}
        # One count over every path's edges; an edge shared by several
        # overlay paths is counted once per path.
        edge_ids = (
            np.concatenate([paths[pk].edge_ids for pk in canonical])
            if canonical
            else np.empty(0, dtype=np.int64)
        )
        # ``bincount`` would grow the vector past an id that is too large
        # and reject a negative one with a bare ValueError, so range-check
        # first (``ravel_multi_index`` does so in C).
        try:
            np.ravel_multi_index((edge_ids,), (num_physical_edges,))
        except ValueError:
            raise InvalidSessionError(
                f"paths cross edge ids outside [0, {num_physical_edges})"
            ) from None
        usage = np.bincount(edge_ids, minlength=num_physical_edges).astype(float)
        return cls(
            members=tuple(members),
            overlay_edges=tuple(canonical),
            paths=kept_paths,
            edge_usage=usage,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of members spanned."""
        return len(self.members)

    @property
    def num_receivers(self) -> int:
        """Number of receivers ``|t| - 1``."""
        return len(self.members) - 1

    @property
    def physical_edges(self) -> np.ndarray:
        """Indices of physical edges with non-zero usage (precomputed)."""
        return self._physical_edges

    @property
    def usage_values(self) -> np.ndarray:
        """``n_e(t)`` restricted to :attr:`physical_edges` (precomputed).

        The sparse counterpart of :attr:`edge_usage`; hot paths pair it
        with ``physical_edges`` for gather/scatter operations whose cost
        is the tree's footprint, not the network size.
        """
        return self._usage_values

    def usage_of(self, edge_id: int) -> float:
        """``n_e(t)`` for a specific physical edge."""
        return float(self.edge_usage[int(edge_id)])

    def length(self, edge_lengths: np.ndarray) -> float:
        """Tree length ``sum_e n_e(t) * d_e`` under a length function.

        On large networks this is a sparse incidence mat-vec: gather the
        lengths of the tree's physical edges and dot with the precomputed
        usage values — the tree touches ``O(|S| * diameter)`` edges while
        the network has ``|E|``, so the per-call cost stays independent
        of the network size.  Below ``SPARSE_LENGTH_MIN_EDGES`` the dense
        dot is cheaper than the gather and is used instead (the choice is
        fixed per tree at construction, so results stay deterministic).
        """
        lengths = np.asarray(edge_lengths, dtype=float)
        if self._sparse_length:
            return float(np.dot(self._usage_values, lengths[self._physical_edges]))
        return float(np.dot(self.edge_usage, lengths))

    def bottleneck_capacity(self, capacities: np.ndarray) -> float:
        """``min_{e in t} c_e / n_e(t)`` — the rate one unit of tree flow allows.

        This is the amount of traffic the MaxFlow algorithm routes per
        augmentation (line 10 of the paper's Table I).
        """
        caps = np.asarray(capacities, dtype=float)
        used = self.physical_edges
        if used.size == 0:
            return float("inf")
        return float((caps[used] / self._usage_values).min())

    def canonical_key(self) -> Tuple:
        """Hashable identity of the tree (overlay edges + physical realisation).

        Two trees are "the same tree" for the paper's tree-count metrics
        when they use the same overlay edges *and* the same physical
        paths; under fixed IP routing the second condition is implied by
        the first, under dynamic routing it is not.  The key is computed
        once at construction — flow accumulation and tree-set bookkeeping
        hit it on every oracle result.
        """
        return self._canonical_key

    def total_physical_hops(self) -> float:
        """Total number of physical link traversals (the tree's "link stress")."""
        return float(self.edge_usage.sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OverlayTree):
            return NotImplemented
        return self._canonical_key == other._canonical_key

    def __hash__(self) -> int:
        return self._key_hash
