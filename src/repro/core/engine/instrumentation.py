"""Per-run engine telemetry: counters plus a bounded event log.

Every :class:`~repro.core.engine.driver.PhaseEngine` run carries one
:class:`Instrumentation` instance.  The engine emits *events* at the
points the questions "how many phases?", "how many oracle rounds ran
batched?" and "how did congestion evolve?" are answered from:

* ``phase`` — a phase boundary (MaxConcurrentFlow's outer loop),
* ``oracle`` — one oracle query round, with the query count and whether
  the batched front served it,
* ``congestion`` — a max-congestion snapshot (online runs).

Counters are exact; the event log is bounded (default 256 entries) so a
hundred-thousand-step run cannot balloon a report — dropped events are
counted, never silently lost.  :meth:`Instrumentation.snapshot` renders
everything as a plain-JSON dict that rides on
:attr:`repro.core.result.FlowSolution.instrumentation` and survives the
:class:`~repro.api.service.SolveReport` round trip byte-for-byte.  It
holds no wall-clock reading and does not depend on whether a listener
was attached, so the same spec always yields the same snapshot; oracle
time is the ``oracle_round`` span's (:mod:`repro.obs.tracing`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ENGINE_SCHEMA = "PhaseEngine/v5"

# Bound on the retained event log.  Every engine uses it (so persisted
# instrumentation stays comparable); tests pass
# ``Instrumentation(max_events=...)`` to exercise a smaller bound.
DEFAULT_MAX_EVENTS = 256

# ----------------------------------------------------------------------
# event taps: externally-installed listeners for engines a caller does
# not construct itself
# ----------------------------------------------------------------------
# Solvers build their own PhaseEngine (and hence their own
# Instrumentation), so a caller holding only a ScenarioSpec has no
# object to hang a listener on.  A *tap* closes that gap: any listener
# installed via ``event_tap`` is copied into every Instrumentation
# created afterwards **in the same thread**, for the duration of the
# ``with`` block.  Thread-locality is the isolation boundary — the serve
# layer runs concurrent solves on separate worker threads, and each
# run's telemetry must reach only its own relay channel.  Events are
# plain-JSON-serializable (:meth:`EngineEvent.to_jsonable`), so a tap
# can ship them across a process boundary (the serve relay's JSONL
# channel) without seeing live engine objects.
_TAP_STATE = threading.local()


def _thread_taps() -> List[Callable[["EngineEvent"], None]]:
    taps = getattr(_TAP_STATE, "stack", None)
    if taps is None:
        taps = []
        _TAP_STATE.stack = taps
    return taps


@contextmanager
def event_tap(
    listener: Callable[["EngineEvent"], None],
) -> Iterator[Callable[["EngineEvent"], None]]:
    """Attach ``listener`` to every engine run started in this thread.

    Live events reach the listener even past the bounded log's capacity
    (dropped-from-log events are still fanned out), so a streaming
    consumer observes the full run regardless of ``max_events``.
    """
    taps = _thread_taps()
    taps.append(listener)
    try:
        yield listener
    finally:
        taps.remove(listener)


@dataclass(frozen=True)
class EngineEvent:
    """One instrumentation event emitted by the engine.

    Attributes
    ----------
    kind:
        ``"phase"``, ``"oracle"`` or ``"congestion"``.
    step:
        The engine step counter when the event fired (0 before the
        first step).
    payload:
        Event-specific numbers (phase index, query count, max
        congestion, ...) — plain floats/ints only, so events serialize.
    """

    kind: str
    step: int
    payload: Dict[str, float]

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-JSON form of this event."""
        return {"kind": self.kind, "step": self.step, **self.payload}


class Instrumentation:
    """Counters and a bounded event log for one engine run.

    Listeners (``on_event`` callbacks) observe every event live — even
    ones the bounded log drops — which is how applications watch
    congestion evolve without the engine growing bespoke hooks.
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        self.steps = 0
        self.phases = 0
        self.oracle_queries = 0
        self.batched_rounds = 0
        self.per_session_rounds = 0
        self.length_updates = 0
        self.max_congestion = 0.0
        self._events: List[EngineEvent] = []
        self._max_events = int(max_events)
        self._dropped_events = 0
        self._metrics_published = False
        # Taps installed in this thread (see event_tap) observe the run
        # from its first event; add_listener appends run-specific ones.
        self._listeners: List[Callable[[EngineEvent], None]] = list(_thread_taps())

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def add_listener(self, listener: Callable[[EngineEvent], None]) -> None:
        """Register a live observer called with every emitted event."""
        self._listeners.append(listener)

    def emit(self, kind: str, step: int, **payload: float) -> Optional[EngineEvent]:
        """Record (and fan out) one event; bounded log, exact counters.

        An event past the log bound counts as dropped whether or not a
        listener still receives it.  With the log full and no listeners
        registered the event would go nowhere — skip constructing it
        (counters are updated by the callers either way), keeping long
        runs' hot loops allocation-free past the log bound.
        """
        if len(self._events) >= self._max_events:
            self._dropped_events += 1
            if not self._listeners:
                return None
        event = EngineEvent(kind=kind, step=step, payload=dict(payload))
        if len(self._events) < self._max_events:
            self._events.append(event)
        for listener in self._listeners:
            listener(event)
        return event

    def phase_started(self, phase: int, step: int) -> None:
        """A phase boundary: phase ``phase`` begins at step ``step``."""
        self.phases += 1
        self.emit("phase", step, phase=float(phase))

    def oracle_round(self, queries: int, batched: bool, step: int) -> None:
        """One query round: ``queries`` oracle calls, batched or looped."""
        self.oracle_queries += int(queries)
        if batched:
            self.batched_rounds += 1
        else:
            self.per_session_rounds += 1
        self.emit(
            "oracle", step, queries=float(queries), batched=float(bool(batched))
        )

    def congestion_snapshot(self, value: float, step: int) -> None:
        """Record the current max congestion (online runs, once per step)."""
        if value > self.max_congestion:
            self.max_congestion = float(value)
        self.emit("congestion", step, max_congestion=float(value))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[EngineEvent, ...]:
        """The retained events, in emission order."""
        return tuple(self._events)

    @property
    def dropped_events(self) -> int:
        """Events beyond the bounded log's capacity (counted, not kept)."""
        return self._dropped_events

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON summary: all counters plus the retained events.

        The dict round-trips through JSON without type drift (ints stay
        ints, floats stay floats), so persisted reports compare equal to
        fresh ones byte-for-byte.

        The first snapshot also publishes the run's counters to the
        process-wide metrics registry (:mod:`repro.obs.metrics`) — the
        "registry tap": solvers snapshot exactly once when assembling
        their solution, so engine metrics flow without any new branch in
        the step loop.
        """
        self.publish_metrics()
        return {
            "engine": ENGINE_SCHEMA,
            "steps": int(self.steps),
            "phases": int(self.phases),
            "oracle_queries": int(self.oracle_queries),
            "batched_rounds": int(self.batched_rounds),
            "per_session_rounds": int(self.per_session_rounds),
            "length_updates": int(self.length_updates),
            "max_congestion": float(self.max_congestion),
            "dropped_events": int(self._dropped_events),
            "events": [event.to_jsonable() for event in self._events],
        }

    def publish_metrics(self) -> None:
        """Publish this run's counters to the process metrics registry.

        Idempotent per instance (repeated snapshots add nothing) and
        deliberately *not* called from the step loop — aggregate engine
        metrics cost zero hot-loop work.
        """
        if self._metrics_published:
            return
        self._metrics_published = True
        from repro.obs import metrics as obs_metrics

        reg = obs_metrics.registry()
        reg.counter(
            "repro_engine_runs_total", "Engine runs snapshotted"
        ).inc()
        reg.counter("repro_engine_steps_total", "Engine steps executed").inc(
            self.steps
        )
        reg.counter(
            "repro_engine_oracle_queries_total", "Oracle calls issued"
        ).inc(self.oracle_queries)
        reg.counter(
            "repro_engine_oracle_rounds_total",
            "Oracle query rounds by front",
            labels={"front": "batched"},
        ).inc(self.batched_rounds)
        reg.counter(
            "repro_engine_oracle_rounds_total",
            "Oracle query rounds by front",
            labels={"front": "per_session"},
        ).inc(self.per_session_rounds)
        reg.counter(
            "repro_engine_length_updates_total", "Per-step length updates"
        ).inc(self.length_updates)
        reg.counter(
            "repro_engine_events_dropped_total",
            "Events not retained by the bounded log",
        ).inc(self._dropped_events)
