"""The phase engine driver: one step loop for every solver.

:class:`PhaseEngine` owns the mechanics every multiplicative-weights
algorithm in the paper shares — ask a :class:`StepPolicy` what to query,
serve the queries (all-session rounds through the
:class:`BatchedOracleFront`, every other round by one
``oracle.minimum_tree`` call per queried session), check the :class:`StoppingRule`,
apply the returned :class:`RouteAction` (flow accumulation, length
multiply, congestion update), enforce the step cap, and emit
instrumentation.  The algorithms themselves reduce to a policy, a
stopping rule, and result post-processing.

The engine supports both batch execution (:meth:`run`, offline solvers)
and stepwise execution (:meth:`step`, the online algorithm's
``accept`` API).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine.batch import BatchedOracleFront
from repro.core.engine.instrumentation import Instrumentation
from repro.core.engine.strategies import RouteAction, StepPolicy, StoppingRule
from repro.core.lengths import LengthFunction
from repro.obs.tracing import maybe_span
from repro.core.result import SessionFlowAccumulator
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.overlay.session import Session
from repro.util.errors import ConfigurationError, ConvergenceError


@dataclass
class EngineRun:
    """What a finished (or paused) engine run exposes to its solver."""

    accumulators: List[SessionFlowAccumulator]
    instrumentation: Instrumentation
    steps: int


class PhaseEngine:
    """Driver of the shared length-update / oracle / stopping-rule loop."""

    def __init__(
        self,
        oracles: Sequence[MinimumOverlayTreeOracle],
        lengths: LengthFunction,
        capacities: np.ndarray,
        policy: StepPolicy,
        stopping: StoppingRule,
        step_cap: Optional[int] = None,
        cap_message: str = "phase engine exceeded its step cap",
        instrumentation: Optional[Instrumentation] = None,
        accumulate_flows: bool = True,
        track_congestion: bool = False,
        oracle_factory=None,
    ) -> None:
        self._oracles: List[MinimumOverlayTreeOracle] = list(oracles)
        self._lengths = lengths
        self._capacities = np.asarray(capacities, dtype=float)
        self._policy = policy
        self._stopping = stopping
        self._step_cap = step_cap
        self._cap_message = cap_message
        self._instr = instrumentation or Instrumentation()
        self._accumulators: List[SessionFlowAccumulator] = (
            [SessionFlowAccumulator(session=o.session) for o in self._oracles]
            if accumulate_flows
            else []
        )
        self._accumulate = accumulate_flows
        self._congestion = (
            np.zeros(self._capacities.shape[0], dtype=float) if track_congestion else None
        )
        # Built lazily on the first batched request: policies that only
        # ever query one session per step (concurrent phases, online
        # arrivals) never pay for stacking the incidence matrices.
        self._front: Optional[BatchedOracleFront] = None
        self._oracle_factory = oracle_factory
        self._oracle_keys: Dict[Tuple[int, ...], int] = {
            tuple(sorted(o.session.members)): i for i, o in enumerate(self._oracles)
        }
        self._steps = 0
        self._stopped = False
        self._policy.bind(self)

    # ------------------------------------------------------------------
    # state exposed to policies / stopping rules / solvers
    # ------------------------------------------------------------------
    @property
    def oracles(self) -> List[MinimumOverlayTreeOracle]:
        """The per-session oracles, indexable by policy step requests."""
        return self._oracles

    @property
    def lengths(self) -> LengthFunction:
        """The shared exponential length function."""
        return self._lengths

    @property
    def capacities(self) -> np.ndarray:
        """Physical edge capacities."""
        return self._capacities

    @property
    def accumulators(self) -> List[SessionFlowAccumulator]:
        """Per-session flow accumulators (empty when accumulation is off)."""
        return self._accumulators

    @property
    def congestion(self) -> Optional[np.ndarray]:
        """The congestion vector (``None`` unless tracking is on)."""
        return self._congestion

    @property
    def instrumentation(self) -> Instrumentation:
        """This run's telemetry."""
        return self._instr

    @property
    def steps(self) -> int:
        """Steps executed so far (query rounds, terminating round included)."""
        return self._steps

    @property
    def oracle_calls(self) -> int:
        """Total MST operations across the engine's oracles."""
        return int(sum(o.call_count for o in self._oracles))

    def oracle_index_for(self, session: Session) -> int:
        """The oracle index serving ``session``, creating one on demand.

        Oracles are shared per member set (the online algorithm's
        replicated arrivals all hit one oracle and its tree cache);
        creation needs an ``oracle_factory`` — engines without one are
        fixed-roster by construction.
        """
        key = tuple(sorted(session.members))
        index = self._oracle_keys.get(key)
        if index is None:
            if self._oracle_factory is None:
                raise ConfigurationError(
                    f"no oracle for session {session.name or session.members} and "
                    "no oracle_factory to create one"
                )
            oracle = self._oracle_factory(session)
            self._oracles.append(oracle)
            index = len(self._oracles) - 1
            self._oracle_keys[key] = index
            if self._accumulate:
                self._accumulators.append(SessionFlowAccumulator(session=session))
        return index

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[RouteAction]:
        """Run one step; ``None`` once the run has stopped.

        A step is: stopping-rule check → policy query request → oracle
        round (batched when possible) → policy selection → stopping-rule
        check → route → apply.  The terminating round (a query whose
        selection trips the stopping rule) counts as a step, matching
        the iteration accounting of the pre-engine loops.
        """
        if self._stopped:
            return None
        if self._stopping.before_step(self):
            self._stopped = True
            return None
        request = self._policy.next_request(self)
        if request is None:
            # Policy exhaustion is *idle*, not terminal: a feed-driven
            # policy (online arrivals) may receive more work later, and
            # the stopping rules above re-establish any genuine stop on
            # the next call.  Only rule-triggered stops latch.
            return None

        self._steps += 1
        self._instr.steps = self._steps
        if self._step_cap is not None and self._steps > self._step_cap:
            raise ConvergenceError(self._cap_message)

        # When no tracer is active (the default), maybe_span returns a
        # shared no-op — the step loop pays one function call and one
        # attribute check per span.  No bound on that cost is asserted.
        with maybe_span("engine.step", step=self._steps):
            if request.batched and self._front is None:
                self._front = BatchedOracleFront(self._oracles)
            batched = request.batched and self._front.supports(request.indices)
            with maybe_span(
                "oracle_round", queries=len(request.indices), batched=batched
            ):
                start = time.perf_counter()
                if batched:
                    results = self._front.query(
                        request.indices, self._lengths.relative
                    )
                else:
                    results = [
                        (index, self._oracles[index].minimum_tree(self._lengths.relative))
                        for index in request.indices
                    ]
                self._instr.oracle_round(
                    queries=len(request.indices),
                    batched=batched,
                    seconds=time.perf_counter() - start,
                    step=self._steps,
                )

            selection = self._policy.select(self, results)
            if self._stopping.after_selection(self, selection):
                self._stopped = True
                return None

            action = self._policy.route(self, selection)
            self._apply(action)
            self._policy.on_routed(self, action)
            return action

    def run(self) -> EngineRun:
        """Run steps until the stopping rule or the policy ends the loop."""
        while self.step() is not None:
            pass
        return EngineRun(
            accumulators=self._accumulators,
            instrumentation=self._instr,
            steps=self._steps,
        )

    def _apply(self, action: RouteAction) -> None:
        """Record the flow and apply the length/congestion updates."""
        if self._accumulate:
            self._accumulators[action.index].add(action.tree, action.amount)
        used = action.tree.physical_edges
        self._lengths.multiply(used, action.factors)
        self._instr.length_updates += 1
        if action.congestion_delta is not None and self._congestion is not None:
            self._congestion[used] += action.congestion_delta
            # Loads are non-negative, so the global maximum after the
            # update is the running maximum or a newly touched edge —
            # an O(|tree edges|) scan, not O(|E|) per step.
            touched_peak = float(self._congestion[used].max()) if used.size else 0.0
            self._instr.congestion_snapshot(
                max(self._instr.max_congestion, touched_peak), self._steps
            )
