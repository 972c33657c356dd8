"""Random-MinCongestion — randomized rounding of the fractional solution.

Paper Table V / Section IV-B.  Problem M2I restricts every commodity to a
single overlay tree (or, more generally, to at most ``n`` trees).  The
randomized-rounding approach first solves the fractional relaxation M2
with MaxConcurrentFlow, then randomly selects trees for each session with
probability proportional to their fractional flows:

* :func:`RandomMinCongestion.round_single_tree` implements Table V
  literally — one tree per session, returning the per-edge congestion and
  ``l_max`` that Theorem 3 bounds;
* :func:`RandomMinCongestion.select_trees` implements the paper's Fig. 5/6
  experiment — ``n`` draws per session (with replacement, so the same
  tree may be selected more than once); the distinct selected trees keep
  their fractional rates, giving the session rate plotted against the
  tree limit;
* :func:`randomized_rounding` is the registered ``randomized_rounding``
  solver: the fractional solve followed by :meth:`select_trees`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.maxconcurrent import max_concurrent_flow
from repro.core.result import FlowSolution, SessionResult, TreeFlow
from repro.overlay.session import Session
from repro.routing.base import RoutingModel
from repro.util.errors import ConfigurationError
from repro.util.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class RoundedSelection:
    """Outcome of one randomized rounding trial.

    Attributes
    ----------
    solution:
        The rounded flows as a :class:`FlowSolution` (rates are the
        fractional rates of the *distinct* selected trees).
    congestion:
        Per-physical-edge congestion if every session routed its full
        demand over its selected tree(s) proportionally to the retained
        fractional flows.
    max_congestion:
        ``l_max`` — the quantity Theorem 3 bounds.
    trees_per_session:
        Number of distinct trees actually selected per session (Fig. 6).
    """

    solution: FlowSolution
    congestion: np.ndarray
    max_congestion: float
    trees_per_session: Tuple[int, ...]


class RandomMinCongestion:
    """Randomized rounding over a fractional (MaxConcurrentFlow) solution."""

    def __init__(self, fractional: FlowSolution, seed: SeedLike = None) -> None:
        if not fractional.sessions:
            raise ConfigurationError("fractional solution has no sessions")
        self._fractional = fractional
        self._network = fractional.network
        self._rng = ensure_rng(seed)

    @property
    def fractional(self) -> FlowSolution:
        """The fractional solution being rounded."""
        return self._fractional

    # ------------------------------------------------------------------
    # tree sampling helpers
    # ------------------------------------------------------------------
    def _sample_trees(
        self, session_result: SessionResult, draws: int, rng: np.random.Generator
    ) -> List[TreeFlow]:
        """Sample ``draws`` trees proportionally to flow; return distinct ones."""
        tree_flows = [tf for tf in session_result.tree_flows if tf.flow > 0]
        if not tree_flows:
            return []
        flows = np.asarray([tf.flow for tf in tree_flows], dtype=float)
        probabilities = flows / flows.sum()
        chosen = rng.choice(len(tree_flows), size=draws, replace=True, p=probabilities)
        distinct_indices = sorted(set(int(c) for c in chosen))
        return [tree_flows[i] for i in distinct_indices]

    # ------------------------------------------------------------------
    # Table V: one tree per session
    # ------------------------------------------------------------------
    def round_single_tree(self, seed: SeedLike = None) -> RoundedSelection:
        """Round to exactly one tree per session (paper Table V).

        The congestion of edge ``e`` is ``sum_i n_e(t^i) * dem(i) / c_e``
        for the selected trees ``t^i``; scaling every demand by the
        resulting ``l_max`` yields a feasible unsplittable solution.
        """
        return self.select_trees(max_trees=1, seed=seed)

    # ------------------------------------------------------------------
    # Fig. 5/6: up to n trees per session
    # ------------------------------------------------------------------
    def select_trees(self, max_trees: int, seed: SeedLike = None) -> RoundedSelection:
        """Select up to ``max_trees`` trees per session (with replacement).

        The session keeps the fractional rates of its distinct selected
        trees, which is how the paper evaluates throughput versus the tree
        limit; the congestion field reports what routing the full demands
        over the selections would cost.
        """
        if max_trees < 1:
            raise ConfigurationError(f"max_trees must be >= 1, got {max_trees}")
        rng = ensure_rng(seed) if seed is not None else self._rng

        capacities = self._network.capacities
        congestion = np.zeros(self._network.num_edges, dtype=float)
        rounded_sessions: List[SessionResult] = []
        trees_per_session: List[int] = []

        for session_result in self._fractional.sessions:
            selected = self._sample_trees(session_result, max_trees, rng)
            trees_per_session.append(len(selected))
            rounded_sessions.append(
                SessionResult(session=session_result.session, tree_flows=tuple(selected))
            )
            demand = session_result.session.demand
            total_selected_flow = sum(tf.flow for tf in selected)
            for tf in selected:
                # Demand is split across selected trees proportionally to
                # their fractional flows (all of it on the single tree for
                # the Table V case).
                share = (
                    demand * (tf.flow / total_selected_flow)
                    if total_selected_flow > 0
                    else 0.0
                )
                used = tf.tree.physical_edges
                congestion[used] += tf.tree.usage_values * share / capacities[used]

        solution = FlowSolution(
            algorithm="Random-MinCongestion",
            sessions=tuple(rounded_sessions),
            network=self._network,
            epsilon=self._fractional.epsilon,
            oracle_calls=self._fractional.oracle_calls,
            extra={
                "max_trees": float(max_trees),
                "max_congestion": float(congestion.max()) if congestion.size else 0.0,
                "fractional_algorithm": 1.0,
            },
        )
        return RoundedSelection(
            solution=solution,
            congestion=congestion,
            max_congestion=float(congestion.max()) if congestion.size else 0.0,
            trees_per_session=tuple(trees_per_session),
        )

    # ------------------------------------------------------------------
    # repeated-trial averages (the paper averages 100 trials)
    # ------------------------------------------------------------------
    def average_over_trials(
        self,
        max_trees: int,
        trials: int,
        seed: SeedLike = None,
    ) -> Dict[str, float]:
        """Average throughput/rate statistics over repeated rounding trials."""
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        rng = ensure_rng(seed) if seed is not None else self._rng
        throughput = np.zeros(trials)
        min_rates = np.zeros(trials)
        rates = np.zeros((trials, len(self._fractional.sessions)))
        tree_counts = np.zeros((trials, len(self._fractional.sessions)))
        congestion = np.zeros(trials)
        for t in range(trials):
            selection = self.select_trees(max_trees, seed=rng)
            throughput[t] = selection.solution.overall_throughput
            min_rates[t] = selection.solution.min_rate
            rates[t] = selection.solution.session_rates
            tree_counts[t] = selection.trees_per_session
            congestion[t] = selection.max_congestion
        out: Dict[str, float] = {
            "mean_throughput": float(throughput.mean()),
            "mean_min_rate": float(min_rates.mean()),
            "mean_max_congestion": float(congestion.mean()),
        }
        for index in range(rates.shape[1]):
            out[f"mean_rate_session_{index + 1}"] = float(rates[:, index].mean())
            out[f"mean_trees_session_{index + 1}"] = float(tree_counts[:, index].mean())
        return out


def randomized_rounding(
    sessions: Sequence[Session],
    routing: RoutingModel,
    max_trees: int = 1,
    *,
    seed: SeedLike,
    approximation_ratio: Optional[float] = 0.95,
    epsilon: Optional[float] = None,
    prescale_epsilon: float = 0.1,
) -> FlowSolution:
    """Random-MinCongestion (paper Table V): round the fractional optimum.

    Solves the fractional MaxConcurrentFlow relaxation with the given
    accuracy parameters, then selects up to ``max_trees`` trees per
    session by flow-proportional sampling seeded by ``seed``.  The seed
    is required, and may not be ``None``: a spec's canonical key names
    one report, so the draw must be reproducible.  (Direct callers that
    want fresh entropy use :class:`RandomMinCongestion`, whose seed is
    optional.)
    """
    if seed is None:
        raise ConfigurationError(
            "randomized_rounding needs a seed: an unseeded draw differs on "
            "every solve, yet a spec names one report"
        )
    fractional = max_concurrent_flow(
        sessions,
        routing,
        approximation_ratio=approximation_ratio,
        epsilon=epsilon,
        prescale_epsilon=prescale_epsilon,
    )
    return RandomMinCongestion(fractional, seed=seed).select_trees(max_trees).solution
