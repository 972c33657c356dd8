"""A standalone content-addressed store of overlay trees.

No solver calls :class:`TreeLedger`.  The engine evaluates every tree's
length with :meth:`~repro.overlay.tree.OverlayTree.length` and applies
its length update straight away.  The class stays only because
``perfbench/layers.py`` imports it and wraps :meth:`TreeLedger.register`,
:meth:`TreeLedger.lengths_for` and :meth:`TreeLedger.edge_values` in
every traced (``--trace 1``) benchmark run; it can go once the benchmark
drops that import.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.overlay.tree import OverlayTree
from repro.util.errors import ConfigurationError


class TreeLedger:
    """Distinct overlay trees as the columns of one incidence matrix ``M``.

    ``M[e, t] = n_e(t)``.  Columns are content-addressed by
    :meth:`OverlayTree.canonical_key`, so registering a known tree again
    returns its original column.
    """

    def __init__(self, num_edges: int) -> None:
        if num_edges < 1:
            raise ConfigurationError("num_edges must be positive")
        self._num_edges = int(num_edges)
        self._columns: Dict[Tuple, int] = {}
        self._trees: List[OverlayTree] = []

    @property
    def num_columns(self) -> int:
        """Distinct trees registered so far."""
        return len(self._trees)

    def register(self, tree: OverlayTree) -> int:
        """The column of ``tree``, appending a new one on first sight."""
        key = tree.canonical_key()
        column = self._columns.get(key)
        if column is not None:
            return column
        if tree.num_physical_edges != self._num_edges:
            raise ConfigurationError(
                f"tree spans {tree.num_physical_edges} edges, ledger holds "
                f"{self._num_edges}"
            )
        column = self._columns[key] = len(self._trees)
        self._trees.append(tree)
        return column

    def lengths_for(
        self, columns: Sequence[int], edge_lengths: np.ndarray
    ) -> np.ndarray:
        """``lengths @ M`` restricted to ``columns``: each tree's own length."""
        lengths = np.asarray(edge_lengths, dtype=float)
        return np.array([self._trees[c].length(lengths) for c in columns], dtype=float)

    def edge_values(
        self,
        columns: Sequence[int],
        weights: Sequence[float],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``M @ weights`` over ``columns``, added into ``out`` tree by tree."""
        w = np.asarray(weights, dtype=float)
        if len(columns) != w.size:
            raise ConfigurationError(
                f"got {len(columns)} columns and {w.size} weights"
            )
        if out is None:
            out = np.zeros(self._num_edges, dtype=float)
        for column, weight in zip(columns, w):
            tree = self._trees[column]
            out[tree.physical_edges] += tree.usage_values * weight
        return out
