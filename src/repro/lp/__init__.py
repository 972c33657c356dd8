"""Exact LP baselines for small instances.

The paper notes that M1/M2 are solvable in polynomial time (via the
ellipsoid method and the Tutte/Nash-Williams separation oracle) but uses
the FPTAS in practice.  For validation we solve them, and Section II-C's
spanning-tree packing, as one LP over *explicitly enumerated* overlay
trees: :func:`repro.lp.exact.solve_tree_lp` builds it sparse from one
column block per session, ``T @ R`` — the tree-by-pair incidence of every
spanning tree times the pair-by-edge incidence of the fixed routes.  That
is tractable for small sessions (Cayley: ``|S|^(|S|-2)`` trees) and gives
ground-truth optima the test suite checks the FPTAS against.
"""

from repro.lp.exact import (
    exact_max_flow,
    exact_max_concurrent_flow,
    ExactSolution,
    enumerate_session_trees,
)

__all__ = [
    "exact_max_flow",
    "exact_max_concurrent_flow",
    "ExactSolution",
    "enumerate_session_trees",
]
