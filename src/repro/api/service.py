"""The solve service: specs in, reports out.

``solve(spec)`` turns one declarative :class:`ScenarioSpec` into a
:class:`SolveReport` — the uniform result envelope carrying the live
:class:`FlowSolution`, wall-clock and oracle-call accounting, and the
echoed spec.  ``solve_many(specs, jobs=...)`` is the batch engine: it
deduplicates specs by :attr:`ScenarioSpec.canonical_key`, reuses a
process-level report cache, and farms uncached specs out to a process
pool sized by the ``--jobs`` / ``REPRO_JOBS`` plumbing
(:mod:`repro.util.jobs`).  It is the library's only process pool: every
experiment sweep and ``python -m repro.api run`` solve through it, and
the solvers themselves run serially.  Parallel batch runs are
bit-identical to serial ones because spec construction is
deterministic.

Both entry points optionally consult a persistent
:class:`repro.store.ReportStore` (pass ``store=`` or export
``REPRO_STORE=<dir>``), and fresh solves are written back, so repeated
runs across processes — and cooperating :mod:`repro.cluster` workers —
never re-solve a spec.  ``solve_many``'s lookup chain per key is
in-process report cache → store → solver pool; ``solve`` checks the
store only (it is the single-shot path — batch callers wanting the
in-process cache use ``solve_many``).

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

from repro.api.registry import Registry, default_registry
from repro.api.specs import ScenarioSpec, SessionSpec
from repro.core.engine.instrumentation import event_tap
from repro.core.result import FlowSolution, SessionResult, TreeFlow
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import Tracer, maybe_span
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.routing.base import RoutingModel, pair_key
from repro.routing.paths import UnicastPath
from repro.store.report_store import StoreLike, resolve_store
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
    spec: ScenarioSpec, registry: Optional[Registry] = None
) -> Tuple[PhysicalNetwork, List[Session], RoutingModel]:
    """Build (or fetch) the live network, sessions and routing of a spec.

    Cached on :attr:`ScenarioSpec.instance_key`, so scenarios that differ
    only in solver/solver_params share one built instance — matching how
    the experiment harness reuses instances across a ratio sweep.
    """
    reg = registry or default_registry()
    key = spec.instance_key
    with maybe_span("build_instance", instance=key[:12]) as span:
        if registry is None and key in _instance_cache:
            _instance_cache.move_to_end(key)
            span.set(cached=True)
            return _instance_cache[key]
        network = spec.topology.build(reg)
        sessions = spec.workload.build(network)
        routing = reg.build_routing(network, spec.routing)
        instance = (network, sessions, routing)
        if registry is None:
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
    registry: Optional[Registry] = None,
) -> FlowSolution:
    """Dispatch prebuilt sessions/routing to a registered solver by name.

    The lower of the API's two layers: callers that already hold live
    objects (the experiment runner, the examples' online-arrival loops)
    use this; callers with a declarative spec use :func:`solve`.  Keys in
    :data:`RETIRED_SOLVER_PARAMS` are dropped with one
    ``DeprecationWarning``; any other unknown key raises ``TypeError``.
    """
    reg = registry or default_registry()
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
    return reg.solver(solver)(sessions, routing, **kwargs)


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
        Whether the report came out of the batch service's cache.
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
def _solve_uncached(
    spec: ScenarioSpec, registry: Optional[Registry] = None
) -> SolveReport:
    """One live solve, no cache or store consultation (the pool-worker path)."""
    _, sessions, routing = build_instance(spec, registry)
    if spec.arrivals is not None:
        # Arrival ordering sits on top of the cached instance: the same
        # built network/sessions serve every ordering/replication variant.
        sessions = spec.arrivals.apply(sessions)
    start = time.perf_counter()
    with maybe_span("solve_instance", solver=spec.solver):
        solution = solve_instance(
            spec.solver, sessions, routing, spec.solver_params, registry
        )
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


def solve(
    spec: ScenarioSpec,
    registry: Optional[Registry] = None,
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
    Stores only apply with the default registry: a custom registry may
    resolve the same names to different implementations, which would
    poison content-addressed entries.

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
            report = _solve_impl(spec, registry, store, on_event)
        if not isinstance(trace, Tracer):
            tracer.save(trace)
        return report
    return _solve_impl(spec, registry, store, on_event)


def _solve_impl(
    spec: ScenarioSpec,
    registry: Optional[Registry],
    store: StoreLike,
    on_event: Optional[Callable[..., None]],
) -> SolveReport:
    global _store_hits
    with maybe_span("solve", solver=spec.solver, key=spec.canonical_key[:12]) as span:
        resolved = resolve_store(store) if registry is None else None
        if resolved is not None:
            hit = resolved.get(spec.canonical_key)
            if hit is not None:
                _store_hits += 1
                _solve_outcome_counter("store").inc()
                span.set(outcome="store")
                return dataclasses.replace(hit, cached=True)
        if on_event is not None:
            with event_tap(on_event):
                report = _solve_uncached(spec, registry)
        else:
            report = _solve_uncached(spec, registry)
        _solve_outcome_counter("cold").inc()
        span.set(outcome="cold")
        if resolved is not None:
            resolved.put(report)
        return report


# ----------------------------------------------------------------------
# batch solve
# ----------------------------------------------------------------------
_report_cache: "OrderedDict[str, SolveReport]" = OrderedDict()
_REPORT_CACHE_LIMIT = 256
_cache_hits = 0
_cache_misses = 0
_store_hits = 0


def _solve_jsonable_cell(payload: Dict[str, Any]) -> SolveReport:
    """Pool worker: rebuild the spec from JSON form and solve it.

    Deliberately skips the store (even when ``REPRO_STORE`` is exported):
    the parent batch already consulted it, and write-back happens once in
    the parent rather than racing from every worker.
    """
    return _solve_uncached(ScenarioSpec.from_jsonable(payload))


def solve_many(
    specs: Sequence[ScenarioSpec],
    jobs: Optional[int] = None,
    use_cache: bool = True,
    store: StoreLike = None,
) -> List[SolveReport]:
    """Solve a batch of scenarios, in input order.

    * Specs with the same :attr:`~ScenarioSpec.canonical_key` are solved
      once; later occurrences (and repeats across calls, via the
      process-level cache) are served from cache with ``cached=True``.
    * With a persistent store (``store=`` path/instance or the
      ``REPRO_STORE`` environment variable), the lookup chain per key is
      in-process report cache → store → solver pool, and every fresh
      solve is written back.  A batch whose keys are all warm in the
      store performs zero solver calls.
    * ``jobs`` resolves through the ``--jobs`` / ``REPRO_JOBS``
      plumbing; with more than one worker, uncached specs solve on a
      process pool.  Results are bit-identical to a serial run.
    * ``use_cache=False`` bypasses the cache, the store *and* the
      within-batch deduplication: every spec in the batch — repeats
      included — is solved fresh.  Use it for scenarios that are
      deliberately non-deterministic, e.g. ``randomized_rounding``
      without a seed, where each occurrence must draw independently.
    """
    global _cache_hits, _cache_misses, _store_hits
    order: List[str] = [spec.canonical_key for spec in specs]
    resolved_store = resolve_store(store) if use_cache else None

    # Decide which batch positions need a live solve.  With caching on,
    # one solve serves every occurrence of a canonical key; with caching
    # off, every position solves independently.
    if use_cache:
        fresh_keys: "OrderedDict[str, ScenarioSpec]" = OrderedDict()
        for spec, key in zip(specs, order):
            if key not in _report_cache and key not in fresh_keys:
                fresh_keys[key] = spec
        if resolved_store is not None:
            # Keys warm in the store need no solver work: promote them
            # into the in-process cache and drop them from the task list.
            for key in list(fresh_keys):
                persisted = resolved_store.get(key)
                if persisted is not None:
                    _store_hits += 1
                    _solve_outcome_counter("store").inc()
                    _report_cache[key] = persisted
                    _report_cache.move_to_end(key)
                    del fresh_keys[key]
        tasks = list(fresh_keys.values())
    else:
        tasks = list(specs)

    workers = min(resolve_jobs(jobs), len(tasks)) if tasks else 1
    if workers > 1 and len(tasks) > 1:
        payloads = [spec.to_jsonable() for spec in tasks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_solve_jsonable_cell, payloads))
    else:
        solved = []
        for spec in tasks:
            # One top-level span per spec, so a traced batch run nests
            # the same way a single solve() does (pool workers run in
            # other processes and escape the thread-local tracer).
            with maybe_span(
                "solve", solver=spec.solver, key=spec.canonical_key[:12]
            ) as span:
                solved.append(_solve_uncached(spec))
                span.set(outcome="cold")
    _cache_misses += len(solved)
    if solved:
        _solve_outcome_counter("cold").inc(len(solved))
    if resolved_store is not None:
        for report in solved:
            resolved_store.put(report)

    if not use_cache:
        return solved

    new_reports: Dict[str, SolveReport] = {
        key: report for key, report in zip(fresh_keys.keys(), solved)
    }

    out: List[SolveReport] = []
    served_this_call: Dict[str, SolveReport] = {}
    for spec, key in zip(specs, order):
        if key in new_reports and key not in served_this_call:
            report = new_reports[key]
            served_this_call[key] = report
        else:
            source = served_this_call.get(key)
            if source is None:
                source = _report_cache[key]
                _report_cache.move_to_end(key)  # LRU, not FIFO: refresh on hit
                _cache_hits += 1
                _solve_outcome_counter("report_cache").inc()
                served_this_call[key] = source
            report = SolveReport(
                spec=spec,
                solution=source.solution,
                wall_seconds=source.wall_seconds,
                oracle_calls=source.oracle_calls,
                cached=True,
            )
        out.append(report)

    for key, report in new_reports.items():
        _report_cache[key] = report
        _report_cache.move_to_end(key)
    while len(_report_cache) > _REPORT_CACHE_LIMIT:
        _report_cache.popitem(last=False)
    if resolved_store is not None:
        # Backfill: keys served from the in-process cache (warmed by an
        # earlier store-less call) must still land on disk, or a store
        # attached mid-session would never see them.  Read from
        # served_this_call, not _report_cache — the eviction pass above
        # may already have dropped a served key from the cache.
        for key, report in served_this_call.items():
            if key not in new_reports and not resolved_store.contains(key):
                resolved_store.put(report)
    return out


def cache_info() -> Dict[str, int]:
    """Batch-service cache counters (hits, misses, cached reports/instances).

    ``misses`` counts live solver runs; ``hits`` counts reports served
    from the in-process cache; ``store_hits`` counts the subset of warm
    keys that came off the persistent store rather than this process's
    own solves.
    """
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "store_hits": _store_hits,
        "reports": len(_report_cache),
        "instances": len(_instance_cache),
    }


def clear_caches() -> None:
    """Drop the report and instance caches and reset the counters."""
    global _cache_hits, _cache_misses, _store_hits
    _report_cache.clear()
    _instance_cache.clear()
    _cache_hits = 0
    _cache_misses = 0
    _store_hits = 0
