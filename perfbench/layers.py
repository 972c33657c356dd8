"""Per-layer attribution for traced runs, installed at runtime.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
public functions and methods of each ``repro`` layer with thin wrappers
that push a frame on a per-thread span stack, so every layer's *self*
time (its span's duration minus the part covered by its child spans) and
call count accumulate in place — hot layers store no per-call event.
Coarse spans (scenario, ticket, HTTP request, store operation, claim)
are kept in memory under their canonical key and written once, by
:meth:`LayerTracer.dump`, when the process ends.  Dijkstra calls and tree
builds are also counted per ``solve()`` call, under the spec's canonical
key, so a run can check that every solve of one spec makes the same
number.

Only traced runs (``--trace 1``) import and install this; untraced runs
carry none of these wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter

#: Layers whose calls are also counted per ``solve()`` call, so that the
#: counts can be held to repeat exactly for every solve of one spec.
PER_SOLVE_COUNTS = ("routing.dijkstra", "overlay.tree_build")


class _ThreadState:
    __slots__ = ("stack", "agg", "solve_counts")

    def __init__(self) -> None:
        self.stack: List[list] = []  # frames: [name, start, child_seconds]
        self.agg: Dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.solve_counts: Optional[Dict[str, int]] = None  # of the running solve()


class LayerTracer:
    """Span stacks per thread, aggregated per span name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self.spans: List[tuple] = []  # (name, key, start, seconds)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, float] = defaultdict(float)
        self.marks: Dict[int, float] = {}
        self.handler_s: Dict[str, float] = {}
        self.solve_counts: Dict[str, List[Dict[str, int]]] = {}  # key -> one per solve()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def wrap(
        self,
        name: str,
        fn: Callable,
        key_of: Optional[Callable[[tuple, Any], Optional[str]]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; a call nested in a span of the
        same name is folded into it (one layer entering itself)."""
        tracer = self
        per_solve = name in PER_SOLVE_COUNTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if per_solve and state.solve_counts is not None:
                state.solve_counts[name] += 1
            frame = [name, _clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                seconds = _clock() - frame[1]
                record = state.agg.get(name)
                if record is None:
                    record = state.agg[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += seconds
                record[2] += seconds - frame[2]
                if stack:
                    stack[-1][2] += seconds
                if key_of is not None:
                    key = key_of(args, result)
                    with tracer._lock:
                        tracer.spans.append((name, key, frame[1], seconds))

        return wrapper

    def totals(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in list(state.agg.items()):
                slot = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                slot["calls"] += calls
                slot["total_s"] += total
                slot["self_s"] += self_s
        return out

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        payload = {
            "pid": os.getpid(),
            "layers": self.totals(),
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "spans": [list(s) for s in self.spans],
            "handler_s": dict(self.handler_s),
            "solve_counts": self.solve_counts,
        }
        if extra:
            payload.update(extra)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _patch_function(tracer, module_name, attr, span, key_of=None):
    module = importlib.import_module(module_name)
    setattr(module, attr, tracer.wrap(span, getattr(module, attr), key_of))


def _patch_method(tracer, cls, attr, span, key_of=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, key_of)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(span, raw.__func__, key_of)))
    else:
        setattr(cls, attr, tracer.wrap(span, raw, key_of))


def _key_arg(args, result):
    return args[1] if len(args) > 1 else None


def spec_key(args, result):
    return getattr(args[0], "canonical_key", None) if args else None


def _report_key(args, result):
    return getattr(args[1], "canonical_key", None) if len(args) > 1 else None


def _task_key(args, result):
    return getattr(result, "key", None)


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public entry points (idempotence is the caller's)."""
    from repro.api import service
    from repro.api.specs import TopologySpec
    from repro.cluster.queue import WorkQueue
    from repro.core.engine.batch import BatchedOracleFront
    from repro.core.engine.driver import PhaseEngine
    from repro.core.engine.ledger import TreeLedger
    from repro.core.lengths import LengthFunction
    from repro.core.rounding import RandomMinCongestion
    from repro.overlay.oracle import MinimumOverlayTreeOracle
    from repro.overlay.tree import OverlayTree
    from repro.routing.dynamic import DynamicRouting
    from repro.routing.ip_routing import FixedIPRouting
    from repro.routing.shortest_path import ShortestPathQuery
    from repro.serve.admission import AdmissionController
    from repro.serve.app import ServeApp
    from repro.serve.relay import RelayWriter
    from repro.store.report_store import ReportStore
    from repro.util.backoff import ExponentialBackoff

    # repro.api
    _patch_function(tracer, "repro.api.service", "build_instance", "api.build_instance")
    _patch_function(tracer, "repro.api.service", "solve_instance", "core.solver")
    _patch_method(tracer, service.SolveReport, "to_jsonable", "api.report_json")
    _patch_method(tracer, service.SolveReport, "from_jsonable", "api.report_json")
    timed_solve = tracer.wrap("api.solve", service.solve, spec_key)

    def solve_wrapped(spec, *args, **kwargs):
        state = tracer._state()
        counts = state.solve_counts = dict.fromkeys(PER_SOLVE_COUNTS, 0)
        try:
            return timed_solve(spec, *args, **kwargs)
        finally:
            state.solve_counts = None
            with tracer._lock:
                tracer.solve_counts.setdefault(spec.canonical_key, []).append(counts)

    service.solve = solve_wrapped
    import repro.serve.app as serve_app

    serve_app.solve = solve_wrapped
    # repro.topology
    _patch_method(tracer, TopologySpec, "build", "topology.build")
    # repro.routing
    _patch_function(tracer, "repro.routing.shortest_path", "dijkstra", "routing.dijkstra")
    _patch_method(tracer, ShortestPathQuery, "paths_for_pairs", "routing.paths")
    _patch_method(tracer, FixedIPRouting, "pair_lengths", "routing.pair_lengths")
    _patch_method(tracer, DynamicRouting, "pair_lengths", "routing.pair_lengths")
    _patch_method(tracer, DynamicRouting, "pair_lengths_from_query", "routing.pair_lengths")
    # repro.overlay
    for attr in (
        "minimum_tree",
        "select_tree",
        "select_tree_from_query",
        "minimum_tree_from_query",
        "select_tree_precomputed",
        "minimum_tree_precomputed",
    ):
        _patch_method(tracer, MinimumOverlayTreeOracle, attr, "overlay.oracle")
    _patch_function(tracer, "repro.overlay.oracle", "minimum_spanning_tree_pairs", "overlay.mst")
    _patch_method(tracer, OverlayTree, "from_paths", "overlay.tree_build")
    _patch_method(tracer, OverlayTree, "length", "overlay.tree_length")
    cached_tree = MinimumOverlayTreeOracle._cached_tree

    def counted_cached_tree(self, key, build):
        misses = self.cache_misses
        tree = cached_tree(self, key, build)
        tracer.count("overlay.memo_lookups")
        if self.cache_misses == misses:
            tracer.count("overlay.memo_hits")
        return tree

    MinimumOverlayTreeOracle._cached_tree = counted_cached_tree
    # repro.core.lengths
    _patch_method(tracer, LengthFunction, "multiply", "lengths.update")
    _patch_method(tracer, LengthFunction, "multiply_batch", "lengths.update")
    # repro.core.engine
    _patch_method(tracer, PhaseEngine, "step", "engine.step")
    _patch_method(tracer, BatchedOracleFront, "query", "engine.front")
    for attr in ("register", "lengths_for", "edge_values"):
        _patch_method(tracer, TreeLedger, attr, "engine.ledger")
    _patch_method(tracer, RandomMinCongestion, "select_trees", "core.rounding")
    # repro.store
    get = tracer.wrap("store.get", ReportStore.get, _key_arg)
    load_entry = ReportStore._load_entry

    def counted_load_entry(self, key, path):
        tracer._local.disk_load = True
        return load_entry(self, key, path)

    def counted_get(self, key):
        tracer._local.disk_load = False
        report = get(self, key)
        if report is not None and not tracer._local.disk_load:
            tracer.count("store.mem_hits")
        return report

    ReportStore._load_entry = counted_load_entry
    ReportStore.get = counted_get
    _patch_method(tracer, ReportStore, "put", "store.put", _report_key)
    _patch_method(tracer, ReportStore, "contains", "store.contains")
    # repro.cluster
    _patch_method(tracer, WorkQueue, "submit", "queue.submit")
    _patch_method(tracer, WorkQueue, "claim", "queue.claim", _task_key)
    _patch_method(tracer, WorkQueue, "requeue_expired", "queue.requeue_scan")
    _patch_method(tracer, WorkQueue, "complete", "queue.complete")
    _patch_method(tracer, WorkQueue, "renew", "queue.renew")
    _patch_method(tracer, ExponentialBackoff, "sleep", "worker.idle")
    claim = WorkQueue.claim

    def counted_claim(self, *args, **kwargs):
        task = claim(self, *args, **kwargs)
        if task is None:
            tracer.count("queue.claim.empty")
        return task

    WorkQueue.claim = counted_claim
    # repro.serve
    _patch_method(tracer, ServeApp, "submit", "serve.submit")
    report = tracer.wrap("serve.report", ServeApp.report, _key_arg)

    def counted_report(self, key):
        code, payload = report(self, key)
        if code == 202:
            tracer.count("serve.report.pending")
        return code, payload

    ServeApp.report = counted_report
    _patch_method(tracer, RelayWriter, "append", "serve.relay")
    offer = AdmissionController.offer
    take = AdmissionController.take

    def timed_offer(self, client, item, priority=0):
        depth = offer(self, client, item, priority=priority)
        with tracer._lock:
            tracer.marks[id(item)] = _clock()
        return depth

    def timed_take(self, timeout=None):
        taken = take(self, timeout=timeout)
        if taken is not None:
            with tracer._lock:
                offered = tracer.marks.pop(id(taken[1]), None)
            if offered is not None:
                tracer.sample("serve.admission_wait_s", _clock() - offered)
        return taken

    AdmissionController.offer = timed_offer
    AdmissionController.take = timed_take


def install_http(tracer: LayerTracer) -> None:
    """Time the server's request handlers, keyed by the client's request id."""
    from repro.serve.routes import ServeRequestHandler

    for attr in ("do_GET", "do_POST"):
        handler = tracer.wrap("serve.http", ServeRequestHandler.__dict__[attr])

        def timed(self, _handler=handler):
            started = _clock()
            try:
                return _handler(self)
            finally:
                request_id = self.headers.get("X-Bench-Request")
                if request_id is not None:
                    seconds = _clock() - started
                    with tracer._lock:
                        tracer.handler_s[request_id] = seconds

        setattr(ServeRequestHandler, attr, timed)
