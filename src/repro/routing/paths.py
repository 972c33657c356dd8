"""Unicast path representation.

A :class:`UnicastPath` records the node sequence and — crucially for the
flow algorithms — the physical edge indices it traverses, so that
per-edge quantities (lengths, capacities, congestion) can be gathered
with a single NumPy fancy-index instead of repeated dictionary lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.topology.network import PhysicalNetwork, node_id
from repro.util.errors import InvalidNetworkError


@dataclass(frozen=True)
class UnicastPath:
    """A simple path between two end systems in the physical network.

    Attributes
    ----------
    nodes:
        The vertex sequence ``(source, ..., destination)``.
    edge_ids:
        Physical edge indices traversed, aligned with consecutive node
        pairs (``len(edge_ids) == len(nodes) - 1``).
    """

    nodes: Tuple[int, ...]
    edge_ids: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edge_ids", np.asarray(self.edge_ids, dtype=np.int64)
        )
        if len(self.nodes) < 1:
            raise InvalidNetworkError("a path must contain at least one node")
        if self.edge_ids.shape[0] != len(self.nodes) - 1:
            raise InvalidNetworkError(
                f"path with {len(self.nodes)} nodes must have "
                f"{len(self.nodes) - 1} edges, got {self.edge_ids.shape[0]}"
            )

    @property
    def source(self) -> int:
        """First node of the path."""
        return self.nodes[0]

    @property
    def destination(self) -> int:
        """Last node of the path."""
        return self.nodes[-1]

    @property
    def hop_count(self) -> int:
        """Number of physical links traversed."""
        return int(self.edge_ids.shape[0])

    def length(self, edge_weights: np.ndarray) -> float:
        """Total path length under the per-edge weight vector."""
        if self.hop_count == 0:
            return 0.0
        return float(np.asarray(edge_weights, dtype=float)[self.edge_ids].sum())

    def bottleneck_capacity(self, capacities: np.ndarray) -> float:
        """Minimum capacity along the path (``inf`` for a trivial path)."""
        if self.hop_count == 0:
            return float("inf")
        return float(np.asarray(capacities, dtype=float)[self.edge_ids].min())

    def validate(self, network: PhysicalNetwork) -> None:
        """Check the path is consistent with ``network``; raise otherwise."""
        for a, b, eid in zip(self.nodes[:-1], self.nodes[1:], self.edge_ids):
            if not network.has_edge(a, b):
                raise InvalidNetworkError(f"path uses missing edge ({a}, {b})")
            if network.edge_id(a, b) != int(eid):
                raise InvalidNetworkError(
                    f"path edge ({a}, {b}) has index {network.edge_id(a, b)}, "
                    f"recorded {int(eid)}"
                )
        seen = set()
        for node in self.nodes:
            if node in seen:
                raise InvalidNetworkError(f"path revisits node {node}")
            seen.add(node)

    @classmethod
    def from_nodes(cls, network: PhysicalNetwork, nodes: Sequence[int]) -> "UnicastPath":
        """Build a path from a node sequence, resolving edge indices."""
        nodes = tuple(map(node_id, nodes))
        edge_ids = np.asarray(
            [network.edge_id(a, b) for a, b in zip(nodes[:-1], nodes[1:])],
            dtype=np.int64,
        )
        return cls(nodes=nodes, edge_ids=edge_ids)

    def __len__(self) -> int:
        return len(self.nodes)
