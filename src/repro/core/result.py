"""Solution containers shared by all flow algorithms.

Every algorithm produces a :class:`FlowSolution`: per-session tree flows,
per-session rates, the aggregate throughput objective of problem M1, the
per-physical-edge traffic vector, and the bookkeeping the paper's tables
report (number of distinct trees, number of MST operations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.topology.network import PhysicalNetwork
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class TreeFlow:
    """A single overlay tree together with the flow routed along it."""

    tree: OverlayTree
    flow: float

    def __post_init__(self) -> None:
        if self.flow < 0:
            raise ConfigurationError(f"tree flow must be non-negative, got {self.flow}")


@dataclass
class SessionFlowAccumulator:
    """Mutable per-session flow bookkeeping used while an algorithm runs.

    Flows are keyed by the tree's canonical identity so that routing the
    same tree twice accumulates into one entry — which is exactly how the
    paper counts "number of trees".
    """

    session: Session
    _flows: Dict[Tuple, Tuple[OverlayTree, float]] = field(default_factory=dict)

    def add(self, tree: OverlayTree, flow: float) -> None:
        """Accumulate ``flow`` units on ``tree``."""
        if flow < 0:
            raise ConfigurationError(f"flow must be non-negative, got {flow}")
        if flow == 0:
            return
        key = tree.canonical_key()
        if key in self._flows:
            existing_tree, existing_flow = self._flows[key]
            self._flows[key] = (existing_tree, existing_flow + flow)
        else:
            self._flows[key] = (tree, flow)

    def scaled(self, factor: float) -> List[TreeFlow]:
        """Return the accumulated flows multiplied by ``factor``."""
        return [TreeFlow(tree=t, flow=f * factor) for t, f in self._flows.values()]

    @property
    def total_flow(self) -> float:
        """Unscaled total flow routed for this session."""
        return float(sum(f for _, f in self._flows.values()))

    @property
    def num_trees(self) -> int:
        """Number of distinct trees carrying flow."""
        return len(self._flows)


@dataclass(frozen=True)
class SessionResult:
    """Final (feasible) per-session outcome."""

    session: Session
    tree_flows: Tuple[TreeFlow, ...]

    @property
    def rate(self) -> float:
        """Session rate: total flow over all trees (the paper's "Rate of Session")."""
        return float(sum(tf.flow for tf in self.tree_flows))

    @property
    def num_trees(self) -> int:
        """Number of distinct trees carrying positive flow."""
        return sum(1 for tf in self.tree_flows if tf.flow > 0)

    @property
    def aggregate_receiver_rate(self) -> float:
        """Rate times receiver count — the session's share of overall throughput."""
        return self.rate * self.session.num_receivers

    def tree_rates(self) -> np.ndarray:
        """Per-tree flow vector (unsorted)."""
        return np.asarray([tf.flow for tf in self.tree_flows], dtype=float)

    def edge_flows(self, num_edges: int) -> np.ndarray:
        """Physical traffic this session places on each edge.

        One ``M @ flows`` scatter over the concatenated tree columns:
        ``np.add.at`` applies the additions sequentially in array order
        (tree by tree, each tree's edges in stored order), which is
        bit-identical to the per-tree fancy-``+=`` loop it replaced —
        same per-edge accumulation sequence.
        """
        out = np.zeros(num_edges, dtype=float)
        if not self.tree_flows:
            return out
        rows = np.concatenate([tf.tree.physical_edges for tf in self.tree_flows])
        values = np.concatenate(
            [tf.tree.usage_values * tf.flow for tf in self.tree_flows]
        )
        np.add.at(out, rows, values)
        return out


@dataclass(frozen=True)
class FlowSolution:
    """Complete outcome of one algorithm run.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm name ("MaxFlow", "MaxConcurrentFlow", ...).
    sessions:
        Per-session results, in the order sessions were supplied.
    network:
        The physical network the problem was solved on.
    epsilon:
        FPTAS parameter used (``None`` for the online/rounding algorithms).
    oracle_calls:
        Number of minimum-overlay-spanning-tree operations (the paper's
        running-time metric).
    extra:
        Algorithm-specific extras (e.g. pre-scaling oracle calls, the
        concurrent throughput ``lambda``, congestion values).
    instrumentation:
        The :class:`repro.core.engine` telemetry snapshot of the run
        that produced this solution (phases, batched and per-session
        oracle-query rounds, congestion snapshots).
        ``None`` for solutions built outside the engine (e.g. rounding
        selections, deserialized legacy reports).  Excluded from
        equality: two runs of the same algorithm are the *same solution*
        even when their wall-clock telemetry differs.
    """

    algorithm: str
    sessions: Tuple[SessionResult, ...]
    network: PhysicalNetwork
    epsilon: Optional[float] = None
    oracle_calls: int = 0
    extra: Mapping[str, float] = field(default_factory=dict)
    instrumentation: Optional[Mapping[str, object]] = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # headline metrics
    # ------------------------------------------------------------------
    @property
    def session_rates(self) -> np.ndarray:
        """Vector of session rates."""
        return np.asarray([s.rate for s in self.sessions], dtype=float)

    @property
    def overall_throughput(self) -> float:
        """Aggregate receiving rate ``sum_i (|S_i| - 1) * rate_i`` (paper tables)."""
        return float(sum(s.aggregate_receiver_rate for s in self.sessions))

    @property
    def min_rate(self) -> float:
        """Minimum session rate (Fig. 15)."""
        if not self.sessions:
            return 0.0
        return float(min(s.rate for s in self.sessions))

    @property
    def concurrent_throughput(self) -> float:
        """``lambda = min_i rate_i / dem(i)`` — the M2 objective value."""
        if not self.sessions:
            return 0.0
        return float(min(s.rate / s.session.demand for s in self.sessions))

    @property
    def num_trees_per_session(self) -> List[int]:
        """Distinct tree counts, in session order (paper tables)."""
        return [s.num_trees for s in self.sessions]

    # ------------------------------------------------------------------
    # physical-layer views
    # ------------------------------------------------------------------
    def edge_flows(self) -> np.ndarray:
        """Total traffic per physical edge across all sessions."""
        out = np.zeros(self.network.num_edges, dtype=float)
        for s in self.sessions:
            out += s.edge_flows(self.network.num_edges)
        return out

    def max_congestion(self) -> float:
        """Maximum link utilization (``l_max`` in the rounding/online algorithms)."""
        utilization = self.edge_flows() / self.network.capacities
        return float(utilization.max()) if utilization.size else 0.0

    def is_feasible(self, tolerance: float = 1e-6) -> bool:
        """Whether total per-edge traffic respects capacities (within tolerance)."""
        flows = self.edge_flows()
        return bool(np.all(flows <= self.network.capacities * (1.0 + tolerance)))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "FlowSolution":
        """Return a copy with every tree flow multiplied by ``factor``."""
        if factor < 0:
            raise ConfigurationError(f"scale factor must be non-negative, got {factor}")
        sessions = tuple(
            SessionResult(
                session=s.session,
                tree_flows=tuple(
                    TreeFlow(tree=tf.tree, flow=tf.flow * factor) for tf in s.tree_flows
                ),
            )
            for s in self.sessions
        )
        return FlowSolution(
            algorithm=self.algorithm,
            sessions=sessions,
            network=self.network,
            epsilon=self.epsilon,
            oracle_calls=self.oracle_calls,
            extra=dict(self.extra),
            instrumentation=self.instrumentation,
        )

    def summary(self) -> Dict[str, float]:
        """Headline metrics as a flat dict (used by experiment reports)."""
        out: Dict[str, float] = {
            "overall_throughput": self.overall_throughput,
            "min_rate": self.min_rate,
            "concurrent_throughput": self.concurrent_throughput,
            "max_congestion": self.max_congestion(),
            "oracle_calls": float(self.oracle_calls),
        }
        for index, s in enumerate(self.sessions):
            out[f"rate_session_{index + 1}"] = s.rate
            out[f"trees_session_{index + 1}"] = float(s.num_trees)
        return out
