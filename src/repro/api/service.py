"""The solve service: specs in, reports out.

``solve(spec)`` turns one declarative :class:`ScenarioSpec` into a
:class:`SolveReport` — the uniform result envelope carrying the live
:class:`FlowSolution`, wall-clock and oracle-call accounting, and the
echoed spec.  ``solve_many(specs, jobs=...)`` is the batch engine on the
same chain: it deduplicates specs by :attr:`ScenarioSpec.canonical_key`
and farms the keys no store holds out to a process pool sized by the
``--jobs`` / ``REPRO_JOBS`` plumbing (:mod:`repro.util.jobs`).  It is
the library's only process pool: every experiment sweep and ``python -m
repro.api run`` solve through it, and the solvers themselves run
serially.  Parallel batch runs are bit-identical to serial ones because
spec construction is deterministic.

A key's one lookup chain, for both entry points, is the persistent
:class:`repro.store.ReportStore` (pass ``store=`` or export
``REPRO_STORE=<dir>``; its memory front, then disk), then the solver,
whose fresh report is written back.  So repeated runs across processes
— and cooperating :mod:`repro.cluster` workers — never re-solve a spec.
``repro_solve_total{outcome}`` counts each key's ``store`` or ``cold``
outcome.

Built networks, session lists and routing models are cached per
*instance* (topology + workload + routing digest), so sweeping many
solver configurations over one instance — the shape of every experiment
in the paper — rebuilds nothing.  :func:`build_instance` is the only
code that turns a spec into live objects; the experiment harness reads
its networks and sessions from it too.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.registry import default_registry
from repro.api.specs import ScenarioSpec, SessionSpec
from repro.core.engine.instrumentation import event_tap
from repro.core.result import FlowSolution, SessionResult, TreeFlow
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import Tracer, maybe_span
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.routing.base import RoutingModel, pair_key
from repro.routing.paths import UnicastPath
from repro.store.report_store import ReportStore, StoreLike, resolve_store
from repro.topology.network import PhysicalNetwork
from repro.util.errors import ConfigurationError
from repro.util.jobs import resolve_jobs
from repro.util.serialization import to_jsonable

REPORT_SCHEMA = "SolveReport/v1"

# ----------------------------------------------------------------------
# instance construction (cached per topology/workload/routing digest)
# ----------------------------------------------------------------------
_INSTANCE_CACHE_LIMIT = 32
_instance_cache: "OrderedDict[str, Tuple[PhysicalNetwork, List[Session], RoutingModel]]" = (
    OrderedDict()
)


def build_instance(
    spec: ScenarioSpec,
) -> Tuple[PhysicalNetwork, List[Session], RoutingModel]:
    """Build (or fetch) the live network, sessions and routing of a spec.

    Cached on :attr:`ScenarioSpec.instance_key`, so scenarios that differ
    only in solver/solver_params share one built instance — matching how
    the experiment harness reuses instances across a ratio sweep.
    """
    key = spec.instance_key
    with maybe_span("build_instance", instance=key[:12]) as span:
        if key in _instance_cache:
            _instance_cache.move_to_end(key)
            span.set(cached=True)
            return _instance_cache[key]
        network = spec.topology.build()
        sessions = spec.workload.build(network)
        routing = default_registry().build_routing(network, spec.routing)
        instance = (network, sessions, routing)
        _instance_cache[key] = instance
        while len(_instance_cache) > _INSTANCE_CACHE_LIMIT:
            _instance_cache.popitem(last=False)
        return instance


#: ``solver_params`` keys of retired switches that never changed a
#: solution (speed-only knobs and the engine's event-log bound).  Stored
#: specs may still carry them, so :func:`solve_instance` accepts and
#: ignores them: such specs keep their canonical keys and still solve.
RETIRED_SOLVER_PARAMS = (
    "memoize",
    "stacked_trees",
    "kernel_backend",
    "prescale_jobs",
    "max_events",
)


def solve_instance(
    solver: str,
    sessions: Sequence[Session],
    routing: RoutingModel,
    params: Optional[Mapping[str, Any]] = None,
) -> FlowSolution:
    """Dispatch prebuilt sessions/routing to a registered solver by name.

    The lower of the API's two layers: callers that already hold live
    objects (the experiment runner, the examples' online-arrival loops)
    use this; callers with a declarative spec use :func:`solve`.
    ``params`` are the registered function's keyword parameters.  Keys in
    :data:`RETIRED_SOLVER_PARAMS` are dropped with one
    ``DeprecationWarning``; any other unknown key raises ``TypeError``.
    """
    kwargs = dict(params or {})
    retired = [key for key in RETIRED_SOLVER_PARAMS if key in kwargs]
    if retired:
        warnings.warn(
            f"solver_params {retired} are retired and ignored",
            DeprecationWarning,
            stacklevel=2,
        )
        for key in retired:
            del kwargs[key]
    return default_registry().solver(solver)(sessions, routing, **kwargs)


# ----------------------------------------------------------------------
# the report envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolveReport:
    """Uniform envelope around one solved scenario.

    Attributes
    ----------
    spec:
        The scenario that was solved (echoed for provenance).
    solution:
        The live :class:`FlowSolution`.
    wall_seconds:
        Wall-clock time of the solve (instance build excluded).
    oracle_calls:
        MST operations performed — the paper's running-time metric.
    cached:
        Whether the report came from the store, or repeats an earlier
        spec of its batch, rather than from a solver run.
    """

    spec: ScenarioSpec
    solution: FlowSolution = field(repr=False)
    wall_seconds: float
    oracle_calls: int
    cached: bool = False

    @property
    def canonical_key(self) -> str:
        """The solved spec's cache key."""
        return self.spec.canonical_key

    def summary(self) -> Dict[str, float]:
        """The solution's headline metrics."""
        return self.solution.summary()

    def to_jsonable(self) -> Dict[str, Any]:
        """Full JSON form: spec, metrics, and the per-tree flow decomposition."""
        sessions = []
        for session_result in self.solution.sessions:
            tree_flows = []
            for tf in session_result.tree_flows:
                tree = tf.tree
                tree_flows.append(
                    {
                        "overlay_edges": [list(e) for e in tree.overlay_edges],
                        "paths": [
                            {"edge": list(e), "nodes": list(tree.paths[e].nodes)}
                            for e in tree.overlay_edges
                        ],
                        "flow": tf.flow,
                    }
                )
            sessions.append(
                {
                    "session": SessionSpec.of(session_result.session).to_jsonable(),
                    "rate": session_result.rate,
                    "num_trees": session_result.num_trees,
                    "tree_flows": tree_flows,
                }
            )
        payload = {
            "schema": REPORT_SCHEMA,
            "spec": self.spec.to_jsonable(),
            "canonical_key": self.canonical_key,
            "algorithm": self.solution.algorithm,
            "epsilon": self.solution.epsilon,
            "wall_seconds": self.wall_seconds,
            "oracle_calls": self.oracle_calls,
            "cached": self.cached,
            "summary": to_jsonable(self.summary()),
            "extra": to_jsonable(dict(self.solution.extra)),
            "sessions": sessions,
        }
        if self.solution.instrumentation is not None:
            # Engine telemetry (phases, oracle rounds, events).  Key
            # absent for pre-engine reports, keeping their persisted
            # bytes (and digests) untouched.
            payload["instrumentation"] = to_jsonable(self.solution.instrumentation)
        return payload

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "SolveReport":
        """Rebuild a report — including a live ``FlowSolution`` — from JSON.

        The physical network is reconstructed from the echoed spec's
        topology (deterministic generators make this exact), trees are
        rebuilt from their serialized unicast paths, and flows are
        restored bit-for-bit (JSON round-trips IEEE doubles exactly).
        """
        schema = data.get("schema")
        if schema != REPORT_SCHEMA:
            raise ConfigurationError(
                f"expected a {REPORT_SCHEMA} document, got schema {schema!r}"
            )
        spec = ScenarioSpec.from_jsonable(data["spec"])
        network = spec.topology.build()
        session_results = []
        for entry in data["sessions"]:
            session = SessionSpec.from_jsonable(entry["session"]).build()
            tree_flows = []
            for tf in entry["tree_flows"]:
                paths = {}
                for item in tf["paths"]:
                    edge = pair_key(*item["edge"])
                    paths[edge] = UnicastPath.from_nodes(network, item["nodes"])
                overlay_edges = [pair_key(*e) for e in tf["overlay_edges"]]
                tree = OverlayTree.from_paths(
                    session.members, overlay_edges, paths, network.num_edges
                )
                tree_flows.append(TreeFlow(tree=tree, flow=float(tf["flow"])))
            session_results.append(
                SessionResult(session=session, tree_flows=tuple(tree_flows))
            )
        solution = FlowSolution(
            algorithm=data["algorithm"],
            sessions=tuple(session_results),
            network=network,
            epsilon=data.get("epsilon"),
            oracle_calls=int(data["oracle_calls"]),
            extra=dict(data.get("extra", {})),
            instrumentation=data.get("instrumentation"),
        )
        return cls(
            spec=spec,
            solution=solution,
            wall_seconds=float(data["wall_seconds"]),
            oracle_calls=int(data["oracle_calls"]),
            cached=bool(data.get("cached", False)),
        )


# ----------------------------------------------------------------------
# single solve
# ----------------------------------------------------------------------
def _solve_uncached(spec: ScenarioSpec) -> SolveReport:
    """One live solve, no store consultation (the pool-worker path)."""
    _, sessions, routing = build_instance(spec)
    if spec.arrivals is not None:
        # Arrival ordering sits on top of the cached instance: the same
        # built network/sessions serve every ordering/replication variant.
        sessions = spec.arrivals.apply(sessions)
    start = time.perf_counter()
    with maybe_span("solve_instance", solver=spec.solver):
        solution = solve_instance(spec.solver, sessions, routing, spec.solver_params)
    wall = time.perf_counter() - start
    return SolveReport(
        spec=spec,
        solution=solution,
        wall_seconds=wall,
        oracle_calls=solution.oracle_calls,
    )


def _solve_outcome_counter(outcome: str):
    return obs_metrics.registry().counter(
        "repro_solve_total",
        "solve()/solve_many() results by cache-chain outcome",
        labels={"outcome": outcome},
    )


def _stored_report(
    spec: ScenarioSpec, store: Optional[ReportStore]
) -> Optional[SolveReport]:
    """The store's verified report of ``spec`` with ``cached=True``, or ``None``."""
    if store is None:
        return None
    hit = store.get(spec.canonical_key)
    if hit is None:
        return None
    _solve_outcome_counter("store").inc()
    return dataclasses.replace(hit, cached=True)


def _keep_cold(report: SolveReport, store: Optional[ReportStore]) -> SolveReport:
    """Count a fresh solve and write it back to the store, if any."""
    _solve_outcome_counter("cold").inc()
    if store is not None:
        store.put(report)
    return report


def solve(
    spec: ScenarioSpec,
    store: StoreLike = None,
    on_event: Optional[Callable[..., None]] = None,
    trace: Optional[Any] = None,
) -> SolveReport:
    """Solve one declarative scenario and return its report.

    Builds (or fetches) the instance, dispatches to the registered
    solver, and wraps the result.  Deterministic: the same spec always
    yields a bit-identical :class:`FlowSolution`.

    With a persistent store configured (``store=`` path/instance, or the
    ``REPRO_STORE`` environment variable), the store is consulted first
    — a verified hit returns the persisted report with ``cached=True``
    and performs no solver work — and a fresh solve is written back.

    ``on_event`` observes the solve live: it is installed as a
    thread-local engine :func:`~repro.core.engine.instrumentation.event_tap`
    for the duration of the solver run, so every
    :class:`~repro.core.engine.instrumentation.EngineEvent` (oracle
    rounds, phase boundaries, congestion snapshots) reaches it as it
    fires — including events the bounded per-run log drops.  This is the
    hook the serve layer's telemetry relay (and the queue workers) ride;
    a store hit performs no engine work and therefore emits no events.

    ``trace`` opts into hierarchical wall-clock spans
    (``solve`` → ``build_instance`` → ``solve_instance`` →
    ``engine.step`` → ``oracle_round``): pass an output path to write a
    Chrome trace-event file for that one solve, or a live
    :class:`repro.obs.tracing.Tracer` to accumulate spans across calls
    (the caller saves).  Tracing never changes solver behaviour — the
    solution is bit-identical with it on or off.
    """
    if trace is not None:
        tracer = trace if isinstance(trace, Tracer) else Tracer()
        with tracer.activate():
            report = _solve_impl(spec, store, on_event)
        if not isinstance(trace, Tracer):
            tracer.save(trace)
        return report
    return _solve_impl(spec, store, on_event)


def _solve_impl(
    spec: ScenarioSpec,
    store: StoreLike,
    on_event: Optional[Callable[..., None]],
) -> SolveReport:
    with maybe_span("solve", solver=spec.solver, key=spec.canonical_key[:12]) as span:
        resolved = resolve_store(store)
        report = _stored_report(spec, resolved)
        if report is not None:
            span.set(outcome="store")
            return report
        if on_event is not None:
            with event_tap(on_event):
                report = _solve_uncached(spec)
        else:
            report = _solve_uncached(spec)
        span.set(outcome="cold")
        return _keep_cold(report, resolved)


# ----------------------------------------------------------------------
# batch solve
# ----------------------------------------------------------------------
def solve_many(
    specs: Sequence[ScenarioSpec],
    jobs: Optional[int] = None,
    store: StoreLike = None,
) -> List[SolveReport]:
    """Solve a batch of scenarios on :func:`solve`'s chain, in input order.

    * Each distinct :attr:`~ScenarioSpec.canonical_key` is looked up once
      in the store (``store=`` path/instance or the ``REPRO_STORE``
      environment variable; its memory front, then disk), and a verified
      hit comes back with ``cached=True``.  A batch whose keys are all
      warm performs zero solver calls.
    * The misses solve once each, and every fresh report is written back
      to the store.  ``jobs`` resolves through the ``--jobs`` /
      ``REPRO_JOBS`` plumbing; with more than one worker, the misses
      solve on a process pool.  Results are bit-identical to a serial run.
    * Later occurrences of a key in the batch return its report with
      ``cached=True``.

    Nothing is kept between calls beyond the store and the instance
    cache: a caller that reuses solutions across batches keeps them
    (the experiment runner does).
    """
    resolved = resolve_store(store)
    reports: Dict[str, SolveReport] = {}
    misses: Dict[str, ScenarioSpec] = {}
    for spec in specs:
        key = spec.canonical_key
        if key not in reports and key not in misses:
            hit = _stored_report(spec, resolved)
            if hit is None:
                misses[key] = spec
            else:
                reports[key] = hit

    workers = min(resolve_jobs(jobs), len(misses)) if misses else 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_solve_uncached, misses.values()))
    else:
        solved = []
        for spec in misses.values():
            # One top-level span per spec, so a traced batch run nests
            # the same way a single solve() does (pool workers run in
            # other processes and escape the thread-local tracer).
            with maybe_span(
                "solve", solver=spec.solver, key=spec.canonical_key[:12]
            ) as span:
                solved.append(_solve_uncached(spec))
                span.set(outcome="cold")
    for key, report in zip(misses, solved):
        reports[key] = _keep_cold(report, resolved)

    out: List[SolveReport] = []
    served = set()
    for spec in specs:
        key = spec.canonical_key
        report = reports[key]
        if key in served:
            report = dataclasses.replace(report, cached=True)
        out.append(report)
        served.add(key)
    return out


def clear_caches() -> None:
    """Drop the instance cache (stores keep their own memory fronts)."""
    _instance_cache.clear()
