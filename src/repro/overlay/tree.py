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
from repro.topology.network import node_id
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


@dataclass(frozen=True, init=False)
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

    The constructor also takes ``edge_usage``, the dense vector ``n_e(t)``
    of traversal counts over all ``|E|`` physical edges.  The tree stores
    its footprint (:attr:`physical_edges`, :attr:`usage_values`), which
    spans ``O(|S| * diameter)`` edges, and keeps the dense vector only
    below ``SPARSE_LENGTH_MIN_EDGES``, where :meth:`length` dots it.
    """

    members: Tuple[int, ...]
    overlay_edges: Tuple[PairKey, ...]
    paths: Mapping[PairKey, UnicastPath] = field(repr=False)

    def __init__(
        self,
        members: Sequence[int],
        overlay_edges: Sequence[PairKey],
        paths: Mapping[PairKey, UnicastPath],
        edge_usage: np.ndarray,
    ) -> None:
        members = tuple(node_id(m, InvalidSessionError) for m in members)
        edges = tuple(pair_key(*p) for p in overlay_edges)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "overlay_edges", edges)
        object.__setattr__(self, "paths", paths)
        usage = np.asarray(edge_usage, dtype=float)
        if not _is_spanning_tree(members, edges):
            raise InvalidSessionError(
                f"overlay edges {edges} do not form a spanning tree over {members}"
            )
        missing = [p for p in edges if p not in paths]
        if missing:
            raise InvalidSessionError(f"missing unicast paths for overlay edges {missing}")
        # Identity caches, never mutated after construction: the
        # accumulators and the oracle's tree cache key off them.
        # ``_usage_values`` is ``n_e(t)`` restricted to the edges the tree
        # touches, so per-call tree-length and flow-accumulation work
        # scales with the tree's footprint rather than with ``|E|``.
        physical = np.flatnonzero(usage > 0)
        values = usage[physical]
        # ``tolist`` yields the same Python ints and floats as per-entry
        # ``int``/``float`` conversion, so the key and its hash are too.
        canonical = (
            tuple(sorted(edges)),
            tuple(zip(physical.tolist(), values.tolist())),
        )
        object.__setattr__(self, "_num_edges", usage.size)
        object.__setattr__(self, "_physical_edges", physical)
        object.__setattr__(self, "_usage_values", values)
        object.__setattr__(
            self,
            "_dense_usage",
            usage if usage.size < SPARSE_LENGTH_MIN_EDGES else None,
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
    def num_physical_edges(self) -> int:
        """``|E|``, the length of :attr:`edge_usage`."""
        return self._num_edges

    @property
    def edge_usage(self) -> np.ndarray:
        """Dense ``n_e(t)`` over all ``|E|`` physical edges.

        Below ``SPARSE_LENGTH_MIN_EDGES`` this is the vector the tree
        keeps; above, a new vector built from the footprint on each
        access, which the tree does not keep.
        """
        if self._dense_usage is not None:
            return self._dense_usage
        usage = np.zeros(self._num_edges)
        usage[self._physical_edges] = self._usage_values
        return usage

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
        """``n_e(t)`` for a specific physical edge, read from the footprint.

        Raises :class:`InvalidSessionError` for an id outside ``[0, |E|)``.
        """
        edge = int(edge_id)
        if not 0 <= edge < self._num_edges:
            raise InvalidSessionError(
                f"edge id {edge} is outside [0, {self._num_edges})"
            )
        return float(self._usage_values[self._physical_edges == edge].sum())

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
        if self._dense_usage is None:
            return float(np.dot(self._usage_values, lengths[self._physical_edges]))
        return float(np.dot(self._dense_usage, lengths))

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OverlayTree):
            return NotImplemented
        return self._canonical_key == other._canonical_key

    def __hash__(self) -> int:
        return self._key_hash
