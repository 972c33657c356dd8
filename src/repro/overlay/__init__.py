"""Overlay sessions, trees, and the spanning-tree oracle.

This subpackage contains the overlay-level abstractions from Section II
of the paper:

* :class:`Session` — a multicast session ``S_i`` (a source, a member set,
  and a demand),
* :class:`OverlayTree` — a spanning tree of the complete overlay graph
  ``G_i`` over a session's members, together with the physical paths its
  overlay edges map to and the resulting per-physical-edge usage counts
  ``n_e(t)``,
* :class:`MinimumOverlayTreeOracle` — the "minimum overlay spanning tree"
  computation that all four algorithms (Tables I, III, V, VI) use as
  their inner oracle, for both fixed-IP and dynamic routing,
* :mod:`tree_packing` — the packing-spanning-trees problem (Section II-C)
  with the Tutte/Nash-Williams partition bound, used to validate the
  problem reformulation.
"""

from repro.overlay.session import Session, random_session
from repro.overlay.tree import OverlayTree
from repro.overlay.mst import minimum_spanning_tree_pairs
from repro.overlay.oracle import MinimumOverlayTreeOracle, OracleResult
from repro.overlay.tree_packing import (
    partition_bound,
    best_partition,
    pack_spanning_trees_lp,
    pack_spanning_trees_greedy,
    enumerate_spanning_trees,
)

__all__ = [
    "Session",
    "random_session",
    "OverlayTree",
    "minimum_spanning_tree_pairs",
    "MinimumOverlayTreeOracle",
    "OracleResult",
    "partition_bound",
    "best_partition",
    "pack_spanning_trees_lp",
    "pack_spanning_trees_greedy",
    "enumerate_spanning_trees",
]
