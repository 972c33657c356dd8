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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.overlay.oracle import OracleResult
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine.driver import PhaseEngine


@dataclass(frozen=True)
class StepRequest:
    """Which oracle queries one step needs.

    ``indices`` lists engine oracle indices in query order; ``batched``
    asks the engine to serve them through the
    :class:`~repro.core.engine.batch.BatchedOracleFront` (one vectorised
    pass) when the front supports it.
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
    accumulation is on.
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

    def on_routed(self, engine: "PhaseEngine", action: RouteAction) -> None:
        """Observe a completed step (custom bookkeeping hook)."""


class MaxFlowPolicy(StepPolicy):
    """Table I: every iteration queries *all* sessions, routes the
    bottleneck capacity of the tree with minimum normalised length, and
    multiplies used-edge lengths by ``1 + eps * n_e(t) * c / c_e``.

    The all-session query is the engine's batched-front showcase: one
    stacked incidence mat-vec serves every session's overlay lengths,
    and under fixed routing only the sessions whose routes cross an edge
    whose length changed — the last routed tree's, or every edge after a
    renormalisation — run Prim again.
    """

    def __init__(self, epsilon: float, max_session_size: int) -> None:
        self._epsilon = float(epsilon)
        self._max_size = int(max_session_size)
        self._all: Tuple[int, ...] = ()

    def bind(self, engine: "PhaseEngine") -> None:
        self._all = tuple(range(len(engine.oracles)))

    def next_request(self, engine: "PhaseEngine") -> Optional[StepRequest]:
        return StepRequest(indices=self._all, batched=True)

    def select(
        self,
        engine: "PhaseEngine",
        results: Sequence[Tuple[int, OracleResult]],
    ) -> Selection:
        # Strict < with in-order iteration: ties keep the earliest
        # session, exactly as the pre-engine loop did.
        best_index = -1
        best_norm = np.inf
        best_result: Optional[OracleResult] = None
        for index, result in results:
            norm = engine.oracles[index].normalized_length(result, self._max_size)
            if norm < best_norm:
                best_norm = norm
                best_index = index
                best_result = result
        return Selection(index=best_index, result=best_result, score=best_norm)

    def route(self, engine: "PhaseEngine", selection: Selection) -> RouteAction:
        tree = selection.result.tree
        capacities = engine.capacities
        bottleneck = tree.bottleneck_capacity(capacities)
        used = tree.physical_edges
        factors = 1.0 + self._epsilon * tree.usage_values * bottleneck / capacities[used]
        return RouteAction(
            index=selection.index, tree=tree, amount=bottleneck, factors=factors
        )


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
        bottleneck = tree.bottleneck_capacity(capacities)
        amount = min(self._remaining, bottleneck)
        self._remaining -= amount
        used = tree.physical_edges
        factors = 1.0 + self._epsilon * tree.usage_values * amount / capacities[used]
        return RouteAction(
            index=selection.index, tree=tree, amount=amount, factors=factors
        )


@dataclass
class OnlineArrivalPolicy(StepPolicy):
    """Table VI: each step routes one arriving session on the minimum
    overlay tree under the current lengths, multiplies used-edge lengths
    by ``1 + sigma * load`` and adds the load to the congestion vector.

    Arrivals are *fed* (:meth:`feed`) rather than fixed up front so the
    incremental ``accept``/``accept_all`` API keeps working; oracles are
    shared per member set through the engine's dynamic oracle table.
    """

    sigma: float
    demand_scale: float = 1.0
    _pending: List[Session] = field(default_factory=list)
    _assignments: List[Tuple[Session, OverlayTree, float]] = field(default_factory=list)

    def feed(self, session: Session) -> None:
        """Queue one arriving session for the next engine step."""
        self._pending.append(session)

    @property
    def assignments(self) -> List[Tuple[Session, OverlayTree, float]]:
        """(session, tree, original demand) per accepted arrival, in order."""
        return self._assignments

    def next_request(self, engine: "PhaseEngine") -> Optional[StepRequest]:
        if not self._pending:
            return None
        return StepRequest(indices=(engine.oracle_index_for(self._pending[0]),))

    def select(
        self,
        engine: "PhaseEngine",
        results: Sequence[Tuple[int, OracleResult]],
    ) -> Selection:
        index, result = results[0]
        return Selection(index=index, result=result, score=result.length)

    def route(self, engine: "PhaseEngine", selection: Selection) -> RouteAction:
        session = self._pending.pop(0)
        tree = selection.result.tree
        demand = session.demand * self.demand_scale
        used = tree.physical_edges
        load = tree.usage_values * demand / engine.capacities[used]
        factors = 1.0 + self.sigma * load
        self._assignments.append((session, tree, session.demand))
        return RouteAction(
            index=selection.index,
            tree=tree,
            amount=session.demand,
            factors=factors,
            congestion_delta=load,
        )
