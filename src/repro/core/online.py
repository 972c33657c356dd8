"""Online-MinCongestion — the online unsplittable tree-selection algorithm.

Paper Table VI / Section IV-C.  Sessions arrive one at a time; each
arriving session is routed on a *single* overlay tree — the minimum
overlay spanning tree under the current exponential length function — and
never rerouted.  The algorithm keeps, per physical edge,

* the length ``d_e`` (multiplied by ``1 + sigma * n_e(t) * dem(i) / c_e``
  whenever a tree crosses the edge), and
* the congestion ``l_e`` (incremented by ``n_e(t) * dem(i) / c_e``).

Scaling all demands by the final maximum congestion ``l_max`` yields a
feasible solution whose congestion is within ``O(log |E|)`` of the
optimum (paper Theorem 4).  The step size ``sigma`` is the knob the
paper's Fig. 5/6 sweeps (there written as ``r``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import OnlineArrivalPolicy, PhaseEngine, RunToExhaustion
from repro.core.lengths import LengthFunction
from repro.core.result import FlowSolution, SessionResult, TreeFlow
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.routing.base import RoutingModel
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class OnlineConfig:
    """Configuration of the online algorithm.

    Attributes
    ----------
    sigma:
        Step size of the length update (the paper's ``r`` in Figs 5/6).
    apply_no_bottleneck_scaling:
        When true, demands are scaled down so that
        ``max_i dem(i) * |Smax| / min_e c_e = 1 / (2k)``, the paper's
        sufficient condition for the Theorem 4 bound.  The scaling only
        affects the routing decisions through the length updates; reported
        rates are always re-expressed in original demand units.
    """

    sigma: float = 10.0
    apply_no_bottleneck_scaling: bool = False

    def validate(self) -> None:
        if self.sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")


@dataclass
class OnlineState:
    """Mutable state of an :class:`OnlineMinCongestion` run.

    Exposed so applications can inspect congestion evolution as sessions
    join (e.g. for admission-control style examples).
    """

    lengths: LengthFunction
    congestion: np.ndarray
    assignments: List[Tuple[Session, OverlayTree, float]] = field(default_factory=list)
    oracle_calls: int = 0

    @property
    def max_congestion(self) -> float:
        """Current ``l_max``."""
        return float(self.congestion.max()) if self.congestion.size else 0.0


class OnlineMinCongestion:
    """Online minimum-congestion tree selection for arriving sessions."""

    def __init__(
        self,
        routing: RoutingModel,
        config: Optional[OnlineConfig] = None,
    ) -> None:
        self._routing = routing
        self._network = routing.network
        self._config = config or OnlineConfig()
        self._config.validate()
        self._demand_scale = 1.0
        # Table VI on the shared phase engine, driven stepwise: each
        # accepted arrival is one engine step.  Oracles are shared per
        # member set through the engine's dynamic oracle table, so all
        # replicas of a logical session hit one tree cache.
        self._policy = OnlineArrivalPolicy(sigma=self._config.sigma)
        self._engine = PhaseEngine(
            oracles=[],
            lengths=LengthFunction.for_online(self._network.capacities),
            capacities=self._network.capacities,
            policy=self._policy,
            stopping=RunToExhaustion(),
            accumulate_flows=False,
            track_congestion=True,
            oracle_factory=lambda session: MinimumOverlayTreeOracle(
                session, self._routing
            ),
        )
        self._state = OnlineState(
            lengths=self._engine.lengths,
            congestion=self._engine.congestion,
            assignments=self._policy.assignments,
        )

    @property
    def state(self) -> OnlineState:
        """Current run state (lengths, congestion, assignments)."""
        return self._state

    # ------------------------------------------------------------------
    # online interface
    # ------------------------------------------------------------------
    def prepare_demand_scaling(self, sessions: Sequence[Session]) -> float:
        """Compute the no-bottleneck demand scale for a known session batch.

        Only used when ``apply_no_bottleneck_scaling`` is enabled and the
        arrival sequence is known ahead of time (as in the experiments).
        Returns the scale applied to demands internally.
        """
        if not self._config.apply_no_bottleneck_scaling or not sessions:
            self._demand_scale = 1.0
            self._policy.demand_scale = 1.0
            return self._demand_scale
        k = len(sessions)
        max_dem = max(s.demand for s in sessions)
        max_size = max(s.size for s in sessions)
        min_cap = float(np.min(self._network.capacities))
        # Choose scale so max dem(i) * |Smax| / min c_e == 1 / (2k).
        target = min_cap / (2.0 * k * max_size)
        self._demand_scale = target / max_dem
        self._policy.demand_scale = self._demand_scale
        return self._demand_scale

    def accept(self, session: Session) -> OverlayTree:
        """Route an arriving session on one tree and update lengths/congestion."""
        session.validate_against(self._network)
        return self._route(session)

    def accept_all(self, sessions: Sequence[Session]) -> List[OverlayTree]:
        """Route a whole arrival sequence, in order.

        Every session is validated before anything else happens, so an
        invalid arrival leaves the solver untouched: no demand scaling,
        nothing queued.  Then each arrival is routed in order, exactly as
        by :meth:`accept`.
        """
        for session in sessions:
            session.validate_against(self._network)
        self.prepare_demand_scaling(sessions)
        return [self._route(session) for session in sessions]

    def _route(self, session: Session) -> OverlayTree:
        """One engine step for a validated arrival."""
        self._policy.feed(session)
        action = self._engine.step()
        self._state.oracle_calls += 1
        return action.tree

    # ------------------------------------------------------------------
    # result extraction
    # ------------------------------------------------------------------
    def solution(
        self,
        group_by_members: bool = True,
        saturate: bool = True,
    ) -> FlowSolution:
        """Package the assignments made so far into a :class:`FlowSolution`.

        Parameters
        ----------
        group_by_members:
            The paper's experiments replicate every logical session into
            many independently-arriving copies; with this flag all copies
            sharing the same member set are reported as one session whose
            rate is the sum of its copies' rates (how Figs 5/6 and 18/19
            present results).
        saturate:
            Scale every rate by ``1 / l_max`` so the busiest physical link
            is exactly saturated (the paper's way of turning congestion
            into achievable throughput).  When the current ``l_max`` is
            zero, rates are reported as raw demands.
        """
        if not self._state.assignments:
            raise ConfigurationError("no sessions have been accepted yet")
        lmax = self._state.max_congestion
        # Congestion is measured in *scaled* demand units; rates below are
        # expressed in original units, so the rate of one copy is
        # dem / (lmax / demand_scale) when saturating.
        effective_lmax = lmax / self._demand_scale if self._demand_scale > 0 else lmax
        if saturate and effective_lmax > 0:
            rate_factor = 1.0 / effective_lmax
        else:
            rate_factor = 1.0

        groups: Dict[Tuple[int, ...], List[Tuple[Session, OverlayTree, float]]] = {}
        order: List[Tuple[int, ...]] = []
        for session, tree, demand in self._state.assignments:
            key = tuple(sorted(session.members)) if group_by_members else (id(session),)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((session, tree, demand))

        session_results = []
        for key in order:
            entries = groups[key]
            base_session = entries[0][0]
            total_demand = sum(d for _, _, d in entries)
            # Strip the "#<i>" replica suffix appended by Session.replicate.
            # rsplit keeps base names that themselves start with "#" intact
            # (a plain split("#")[0] would yield "" and fall back to the
            # full name, replica suffix included).
            representative = Session(
                base_session.members,
                demand=total_demand,
                source=base_session.source,
                name=base_session.name.rsplit("#", 1)[0] or base_session.name,
            )
            tree_flows: Dict[Tuple, TreeFlow] = {}
            for _, tree, demand in entries:
                flow = demand * rate_factor
                k = tree.canonical_key()
                if k in tree_flows:
                    tree_flows[k] = TreeFlow(tree=tree, flow=tree_flows[k].flow + flow)
                else:
                    tree_flows[k] = TreeFlow(tree=tree, flow=flow)
            session_results.append(
                SessionResult(session=representative, tree_flows=tuple(tree_flows.values()))
            )

        return FlowSolution(
            algorithm="Online-MinCongestion",
            sessions=tuple(session_results),
            network=self._network,
            epsilon=None,
            oracle_calls=self._state.oracle_calls,
            extra={
                "sigma": self._config.sigma,
                "max_congestion": lmax,
                "effective_max_congestion": effective_lmax,
                "demand_scale": self._demand_scale,
                "num_arrivals": float(len(self._state.assignments)),
                "routing": "dynamic" if self._routing.is_dynamic else "fixed",
            },
            instrumentation=self._engine.instrumentation.snapshot(),
        )
