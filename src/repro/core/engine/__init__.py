"""repro.core.engine — the shared multiplicative-weights phase engine.

The paper's three algorithms (MaxFlow Table I, MaxConcurrentFlow
Table III, Online-MinCongestion Table VI) are one skeleton: update
exponential edge lengths, ask the minimum-overlay-tree oracle for a
tree, record a tree flow, test a stopping rule.  This package owns that
skeleton once, with the per-algorithm differences expressed as pluggable
strategies:

* :class:`PhaseEngine` — the driver: the step loop, flow accumulation,
  length updates, congestion tracking, step-cap enforcement, and
  instrumentation emission.
* :class:`StepPolicy` — what one step *is*: which oracles to query, how
  to pick among the results, and how much flow to route with which
  length-update factors (:class:`MaxFlowPolicy`,
  :class:`ConcurrentPhasePolicy`, :class:`OnlineArrivalPolicy`).
* :class:`StoppingRule` — when the loop ends
  (:class:`DualObjectiveStop`, :class:`NormalizedLengthStop`,
  :class:`RunToExhaustion`).
* :class:`BatchedOracleFront` — evaluates *all* sessions' overlay tree
  queries for an iteration in one vectorised pass over the shared
  length array (stacked sparse incidence mat-vec under fixed routing;
  one union-of-members Dijkstra with shared distance/predecessor rows
  under dynamic routing), bit-identical to the per-session loop it
  replaces; under fixed routing it re-runs the oracle only for sessions
  whose route lengths changed since the previous round.  Every other
  round calls ``oracle.minimum_tree`` once per queried session.
* :class:`Instrumentation` — per-step events (oracle calls, phase
  boundaries, congestion snapshots) and counters, replacing the ad-hoc
  counters solvers used to hand-maintain; its :meth:`snapshot` rides on
  :class:`~repro.core.result.FlowSolution` and into
  :class:`~repro.api.service.SolveReport` JSON.

The engine is a pure refactoring seam: each ported solver produces
bit-identical :class:`~repro.core.result.FlowSolution`s to its
pre-refactor loop (asserted in ``tests/test_engine_equivalence.py``).
"""

from repro.core.engine.batch import BatchedOracleFront
from repro.core.engine.driver import EngineRun, PhaseEngine
from repro.core.engine.instrumentation import EngineEvent, Instrumentation, event_tap
from repro.core.engine.strategies import (
    ConcurrentPhasePolicy,
    DualObjectiveStop,
    MaxFlowPolicy,
    NormalizedLengthStop,
    OnlineArrivalPolicy,
    RouteAction,
    RunToExhaustion,
    Selection,
    StepPolicy,
    StepRequest,
    StoppingRule,
)

__all__ = [
    "PhaseEngine",
    "EngineRun",
    "BatchedOracleFront",
    "Instrumentation",
    "EngineEvent",
    "event_tap",
    "StepPolicy",
    "StoppingRule",
    "StepRequest",
    "Selection",
    "RouteAction",
    "MaxFlowPolicy",
    "ConcurrentPhasePolicy",
    "OnlineArrivalPolicy",
    "NormalizedLengthStop",
    "DualObjectiveStop",
    "RunToExhaustion",
]
