"""Strategy points of the phase engine: step policies and stopping rules.

A :class:`StepPolicy` defines what one engine step *is* for a concrete
algorithm — which oracles to query, how to pick among the returned
trees, and how much flow to route with which length-update factors.  A
:class:`StoppingRule` defines when the loop ends.  The three policies
here express the paper's Tables I, III and VI on top of one driver; the
classes are open for plugin algorithms that follow the same
multiplicative-weights skeleton.

Every policy preserves the exact oracle-query order, comparison
direction and update arithmetic of the hand-rolled loops it replaced, so
ported solvers stay bit-identical (see ``tests/test_engine_equivalence``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.overlay.oracle import OracleResult
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine.driver import PhaseEngine


@dataclass(frozen=True)
class StepRequest:
    """Which oracle queries one step needs.

    ``indices`` lists engine oracle indices in query order; ``batched``
    asks the engine to serve them through the
    :class:`~repro.core.engine.batch.BatchedOracleFront` (one vectorised
    pass over every oracle, worth it only for all-session rounds).
    """

    indices: Tuple[int, ...]
    batched: bool = False


@dataclass(frozen=True)
class Selection:
    """The tree a step settled on, plus the policy's comparison score."""

    index: int
    result: OracleResult
    score: float


@dataclass(frozen=True)
class RouteAction:
    """One routing decision: flow on a tree plus the length update.

    ``factors`` aligns with ``tree.physical_edges``; ``congestion_delta``
    (optional, same alignment) is added to the engine's congestion
    vector — the online algorithm's ``l_e`` bookkeeping.  ``amount`` is
    recorded in the engine's per-session flow accumulators when flow
    accumulation is on.  A policy may return the same action, arrays
    included, for every step that routes the same tree, so consumers must
    not mutate it.
    """

    index: int
    tree: OverlayTree
    amount: float
    factors: np.ndarray
    congestion_delta: Optional[np.ndarray] = None


class StoppingRule(ABC):
    """When the engine's loop ends (beyond policy exhaustion)."""

    def before_step(self, engine: "PhaseEngine") -> bool:
        """Checked at the top of every step, before any oracle query."""
        return False

    def after_selection(self, engine: "PhaseEngine", selection: Selection) -> bool:
        """Checked after a step's tree selection, before routing."""
        return False


class RunToExhaustion(StoppingRule):
    """Never stops; the run ends when the policy runs out of steps."""


class NormalizedLengthStop(StoppingRule):
    """MaxFlow termination (Table I line 6): stop once the minimum
    normalised tree length reaches 1 (evaluated in log space by the
    underflow-safe length function)."""

    def after_selection(self, engine: "PhaseEngine", selection: Selection) -> bool:
        return engine.lengths.at_least_one(selection.score)


class DualObjectiveStop(StoppingRule):
    """MaxConcurrentFlow termination (Table III): stop once the dual
    objective ``sum_e c_e d_e`` reaches 1 (log-space evaluation)."""

    def __init__(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=float)

    def before_step(self, engine: "PhaseEngine") -> bool:
        return engine.lengths.weighted_sum_log(self._weights) >= 0.0


class StepPolicy(ABC):
    """What one step is: query → select → route."""

    def bind(self, engine: "PhaseEngine") -> None:
        """Called once when the engine adopts this policy."""

    @abstractmethod
    def next_request(self, engine: "PhaseEngine") -> Optional[StepRequest]:
        """The next step's oracle queries, or ``None`` when exhausted."""

    @abstractmethod
    def select(
        self,
        engine: "PhaseEngine",
        results: Sequence[Tuple[int, OracleResult]],
    ) -> Selection:
        """Pick one tree among the query results."""

    @abstractmethod
    def route(self, engine: "PhaseEngine", selection: Selection) -> RouteAction:
        """Turn the selected tree into flow + length-update factors."""


class MaxFlowPolicy(StepPolicy):
    """Table I: every iteration queries *all* sessions, routes the
    bottleneck capacity of the tree with minimum normalised length, and
    multiplies used-edge lengths by ``1 + eps * n_e(t) * c / c_e``.

    The all-session query is the engine's batched-front showcase: one
    stacked incidence mat-vec serves every session's overlay lengths,
    and under fixed routing only the sessions whose routes cross an edge
    whose length changed — the last routed tree's, or every edge after a
    renormalisation — run Prim again.

    A run routes few distinct trees over many steps, and the routed
    amount (the bottleneck) and factors depend only on the tree, epsilon
    and the capacities, so each session's :class:`RouteAction` is built
    once per distinct tree and reused; its factors array is read-only.
    """

    def __init__(self, epsilon: float, max_session_size: int) -> None:
        self._epsilon = float(epsilon)
        self._max_size = int(max_session_size)
        self._request: Optional[StepRequest] = None
        self._receivers: Tuple[int, ...] = ()
        self._routes: List[Dict[OverlayTree, RouteAction]] = []

    def bind(self, engine: "PhaseEngine") -> None:
        if self._max_size < 2:
            raise ConfigurationError("max_session_size must be at least 2")
        oracles = engine.oracles
        self._request = StepRequest(indices=tuple(range(len(oracles))), batched=True)
        self._receivers = tuple(o.session.size - 1 for o in oracles)
        # Per session: the same tree routed for another session with the
        # same members must credit that session.
        self._routes = [{} for _ in oracles]

    def next_request(self, engine: "PhaseEngine") -> Optional[StepRequest]:
        return self._request

    def select(
        self,
        engine: "PhaseEngine",
        results: Sequence[Tuple[int, OracleResult]],
    ) -> Selection:
        # Strict < with in-order iteration: ties keep the earliest
        # session, exactly as the pre-engine loop did.  ``norm`` is
        # ``MinimumOverlayTreeOracle.normalized_length`` inline, with the
        # same operation order.
        scale = self._max_size - 1
        receivers = self._receivers
        best_index = -1
        best_norm = np.inf
        best_result: Optional[OracleResult] = None
        for index, result in results:
            norm = result.length * scale / receivers[index]
            if norm < best_norm:
                best_norm = norm
                best_index = index
                best_result = result
        return Selection(index=best_index, result=best_result, score=best_norm)

    def route(self, engine: "PhaseEngine", selection: Selection) -> RouteAction:
        tree = selection.result.tree
        routes = self._routes[selection.index]
        action = routes.get(tree)
        if action is None:
            capacities = engine.capacities
            bottleneck = tree.bottleneck_capacity(capacities)
            used = tree.physical_edges
            factors = 1.0 + self._epsilon * tree.usage_values * bottleneck / capacities[used]
            factors.flags.writeable = False
            action = routes[tree] = RouteAction(
                index=selection.index, tree=tree, amount=bottleneck, factors=factors
            )
        return action


class ConcurrentPhasePolicy(StepPolicy):
    """Table III: phases iterate the sessions in order; within a session,
    steps route ``min(remaining, bottleneck)`` until its (scaled) demand
    is met; after ``phase_budget`` phases without termination the working
    demands double (halving the unknown optimum ``lambda``).

    The policy owns the phase/session/remaining bookkeeping; the dual
    stopping rule is the engine's per-step check, so a phase or session
    boundary is only crossed when the run is still live — matching the
    ``while remaining > 0 and not dual()`` structure of the original
    loop exactly.
    """

    def __init__(
        self,
        epsilon: float,
        working_demands: np.ndarray,
        phase_budget: int,
    ) -> None:
        self._epsilon = float(epsilon)
        self._working_demands = np.asarray(working_demands, dtype=float).copy()
        self._phase_budget = int(phase_budget)
        self._session_index = -1  # -1: before the first phase
        self._remaining = 0.0
        self._phases = 0
        self._doublings = 0
        self._phases_since_doubling = 0
        # The bottleneck depends only on the tree and the capacities, so it
        # is kept per tree; the routed amount and factors also depend on
        # the remaining demand.
        self._bottlenecks: Dict[OverlayTree, float] = {}

    @property
    def phases(self) -> int:
        """Completed-or-started phase count (the paper's phase metric)."""
        return self._phases

    @property
    def doublings(self) -> int:
        """How many times the working demands were doubled."""
        return self._doublings

    def _start_phase(self, engine: "PhaseEngine") -> None:
        # Doubling check sits at the completed-phase boundary; the
        # engine's stopping rule already established the dual objective
        # is not reached, matching the original `and not dual()` guard.
        if self._phases > 0 and self._phases_since_doubling >= self._phase_budget:
            self._working_demands = self._working_demands * 2.0
            self._doublings += 1
            self._phases_since_doubling = 0
        self._phases += 1
        self._phases_since_doubling += 1
        self._session_index = 0
        self._remaining = float(self._working_demands[0])
        engine.instrumentation.phase_started(self._phases, engine.instrumentation.steps)

    def next_request(self, engine: "PhaseEngine") -> Optional[StepRequest]:
        num_sessions = len(engine.oracles)
        if self._session_index < 0:
            self._start_phase(engine)
        while self._remaining <= 0:
            self._session_index += 1
            if self._session_index >= num_sessions:
                self._start_phase(engine)
            else:
                self._remaining = float(self._working_demands[self._session_index])
        return StepRequest(indices=(self._session_index,), batched=False)

    def select(
        self,
        engine: "PhaseEngine",
        results: Sequence[Tuple[int, OracleResult]],
    ) -> Selection:
        index, result = results[0]
        return Selection(index=index, result=result, score=result.length)

    def route(self, engine: "PhaseEngine", selection: Selection) -> RouteAction:
        tree = selection.result.tree
        capacities = engine.capacities
        bottleneck = self._bottlenecks.get(tree)
        if bottleneck is None:
            bottleneck = self._bottlenecks[tree] = tree.bottleneck_capacity(capacities)
        amount = min(self._remaining, bottleneck)
        self._remaining -= amount
        used = tree.physical_edges
        factors = 1.0 + self._epsilon * tree.usage_values * amount / capacities[used]
        return RouteAction(
            index=selection.index, tree=tree, amount=amount, factors=factors
        )


class OnlineArrivalPolicy(StepPolicy):
    """Table VI: each step routes one arriving session on the minimum
    overlay tree under the current lengths, multiplies used-edge lengths
    by ``1 + sigma * load`` and adds the load to the congestion vector.

    The arrival sequence is known up front: ``oracle_indices[i]`` is the
    engine oracle serving ``arrivals[i]`` (one oracle per member set, so
    replicas of a session share its tree cache), and the run ends after
    the last arrival.  Loads and length factors use
    ``demand * demand_scale`` (the no-bottleneck scaling); assignments
    keep the original demand.
    """

    def __init__(
        self,
        sigma: float,
        arrivals: Sequence[Session],
        oracle_indices: Sequence[int],
        demand_scale: float,
    ) -> None:
        self._sigma = sigma
        self._demand_scale = demand_scale
        self._arrivals = list(arrivals)
        self._oracle_indices = list(oracle_indices)
        self._next = 0
        self._assignments: List[Tuple[Session, OverlayTree, float]] = []

    @property
    def assignments(self) -> List[Tuple[Session, OverlayTree, float]]:
        """(session, tree, original demand) per routed arrival, in order."""
        return self._assignments

    def next_request(self, engine: "PhaseEngine") -> Optional[StepRequest]:
        if self._next == len(self._arrivals):
            return None
        return StepRequest(indices=(self._oracle_indices[self._next],))

    def select(
        self,
        engine: "PhaseEngine",
        results: Sequence[Tuple[int, OracleResult]],
    ) -> Selection:
        index, result = results[0]
        return Selection(index=index, result=result, score=result.length)

    def route(self, engine: "PhaseEngine", selection: Selection) -> RouteAction:
        session = self._arrivals[self._next]
        self._next += 1
        tree = selection.result.tree
        demand = session.demand * self._demand_scale
        used = tree.physical_edges
        load = tree.usage_values * demand / engine.capacities[used]
        factors = 1.0 + self._sigma * load
        self._assignments.append((session, tree, session.demand))
        return RouteAction(
            index=selection.index,
            tree=tree,
            amount=session.demand,
            factors=factors,
            congestion_delta=load,
        )
