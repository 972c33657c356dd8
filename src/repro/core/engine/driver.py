"""The phase engine driver: one step loop for every solver.

:class:`PhaseEngine` owns the mechanics every multiplicative-weights
algorithm in the paper shares — ask a :class:`StepPolicy` what to query,
serve the queries (all-session rounds through the
:class:`BatchedOracleFront`, every other round by one
``oracle.minimum_tree`` call per queried session), check the :class:`StoppingRule`,
apply the returned :class:`RouteAction` (flow accumulation, length
multiply, congestion update), enforce the step cap, and emit
instrumentation.  The algorithms themselves reduce to a policy, a
stopping rule, and result post-processing: each solver builds its
oracles, calls :meth:`PhaseEngine.run` and reads the engine's
accumulators, congestion, step count and instrumentation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.engine.batch import BatchedOracleFront
from repro.core.engine.instrumentation import Instrumentation
from repro.core.engine.strategies import RouteAction, StepPolicy, StoppingRule
from repro.core.lengths import LengthFunction
from repro.obs.tracing import maybe_span
from repro.core.result import SessionFlowAccumulator
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.util.errors import ConvergenceError


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
        accumulate_flows: bool = True,
        track_congestion: bool = False,
    ) -> None:
        self._oracles: List[MinimumOverlayTreeOracle] = list(oracles)
        self._lengths = lengths
        self._capacities = np.asarray(capacities, dtype=float)
        self._policy = policy
        self._stopping = stopping
        self._step_cap = step_cap
        self._cap_message = cap_message
        self._instr = Instrumentation()
        self._accumulators: List[SessionFlowAccumulator] = (
            [SessionFlowAccumulator(session=o.session) for o in self._oracles]
            if accumulate_flows
            else []
        )
        self._congestion = (
            np.zeros(self._capacities.shape[0], dtype=float) if track_congestion else None
        )
        # Built lazily on the first batched request: policies that only
        # ever query one session per step (concurrent phases, online
        # arrivals) never pay for stacking the incidence matrices.
        self._front: Optional[BatchedOracleFront] = None
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

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[RouteAction]:
        """Run one step; ``None`` once the run has stopped.

        A step is: stopping-rule check → policy query request → oracle
        round (batched when the request asks) → policy selection → stopping-rule
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
            # The policy is out of steps (online: every arrival routed).
            return None

        self._steps += 1
        self._instr.steps = self._steps
        if self._step_cap is not None and self._steps > self._step_cap:
            raise ConvergenceError(self._cap_message)

        # When no tracer is active (the default), maybe_span returns a
        # shared no-op — the step loop pays one function call and one
        # attribute check per span.  No bound on that cost is asserted.
        with maybe_span("engine.step", step=self._steps):
            batched = request.batched
            if batched and self._front is None:
                self._front = BatchedOracleFront(self._oracles)
            with maybe_span(
                "oracle_round", queries=len(request.indices), batched=batched
            ):
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
                    queries=len(request.indices), batched=batched, step=self._steps
                )

            selection = self._policy.select(self, results)
            if self._stopping.after_selection(self, selection):
                self._stopped = True
                return None

            action = self._policy.route(self, selection)
            self._apply(action)
            return action

    def run(self) -> None:
        """Run steps until the stopping rule or the policy ends the loop."""
        while self.step() is not None:
            pass

    def _apply(self, action: RouteAction) -> None:
        """Record the flow and apply the length/congestion updates."""
        if self._accumulators:
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
