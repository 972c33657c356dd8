"""Hierarchical wall-clock spans as Chrome trace-event JSON (stdlib only).

A :class:`Tracer` collects *complete* events (``ph: "X"``) — one per
span, with microsecond ``ts``/``dur`` — in the Chrome trace-event
format, so the output loads directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.  Nesting is positional: a span whose interval
sits inside another span's interval on the same pid/tid renders as its
child, which is exactly how ``solve`` → ``build_instance`` →
``engine.step`` → ``oracle_round`` stack up.

Tracing is opt-in and thread-local.  Call sites use::

    with maybe_span("engine.step", step=3):
        ...

When no tracer is active on the thread (the default), ``maybe_span``
returns a shared no-op context manager — the cost is one function call
and one attribute check.  No bound on that cost is asserted; the tests
pin only that tracing never changes a solver's outputs.  Activation::

    tracer = Tracer()
    with tracer.activate():
        solve(spec)
    tracer.save("out.trace.json")

or, for the common trace-to-file case, ``with trace_to(path): ...``.
Multi-process traces (cluster workers write one file per task) are
stitched by ``python -m repro.obs merge``, which keys lanes on the
pid/tid each tracer stamped at span time.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, IO, List, Optional, Union

TRACE_SCHEMA = "chrome-trace-events"


class _NullSpan:
    """The shared no-op span handed out when tracing is inactive."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **args: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """One open span; closing it appends a complete event to its tracer."""

    __slots__ = ("_tracer", "name", "args", "_start_us", "_tid")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._tid = threading.get_ident()
        self._start_us = time.perf_counter_ns() / 1000.0

    def set(self, **args: Any) -> None:
        """Attach extra key/values to the span (visible in the viewer)."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end_us = time.perf_counter_ns() / 1000.0
        event: Dict[str, Any] = {
            "name": self.name,
            "cat": "repro",
            "ph": "X",
            "ts": self._start_us,
            "dur": end_us - self._start_us,
            "pid": self._tracer.pid,
            "tid": self._tid,
        }
        if self.args:
            event["args"] = self.args
        self._tracer._append(event)


class Tracer:
    """A thread-safe collector of Chrome trace events for one process."""

    def __init__(self, pid: Optional[int] = None, process_name: Optional[str] = None):
        self.pid = os.getpid() if pid is None else int(pid)
        self.process_name = process_name
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    def _append(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    def span(self, name: str, **args: Any) -> Span:
        """Open a span; use as a context manager."""
        return Span(self, name, dict(args))

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def activate(self) -> "_Activation":
        """Install this tracer thread-locally (restores the prior one)."""
        return _Activation(self)

    def to_jsonable(self) -> Dict[str, Any]:
        events = self.events
        if self.process_name:
            events.insert(
                0,
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": self.pid,
                    "tid": 0,
                    "args": {"name": self.process_name},
                },
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save(self, path_or_file: Union[str, "os.PathLike[str]", IO[str]]) -> None:
        """Write the trace as Perfetto-loadable JSON."""
        payload = self.to_jsonable()
        if hasattr(path_or_file, "write"):
            json.dump(payload, path_or_file)  # type: ignore[arg-type]
            return
        path = os.fspath(path_or_file)  # type: ignore[arg-type]
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# thread-local activation
# ----------------------------------------------------------------------
_ACTIVE = threading.local()


class _Activation:
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self._tracer
        return self._tracer

    def __exit__(self, *exc_info: Any) -> None:
        _ACTIVE.tracer = self._previous


def current_tracer() -> Optional[Tracer]:
    """The tracer active on this thread, or ``None``."""
    return getattr(_ACTIVE, "tracer", None)


def maybe_span(name: str, **args: Any) -> Union[Span, _NullSpan]:
    """A span on the active tracer, or the shared no-op when inactive.

    This is the only tracing call that sits on hot paths, so the
    inactive branch does no allocation and takes no locks.
    """
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None:
        return NULL_SPAN
    return Span(tracer, name, dict(args))


class trace_to:
    """Trace the block to ``path`` (activates a fresh tracer, saves on exit).

    ::

        with trace_to("run.trace.json"):
            solve(spec)
    """

    def __init__(self, path: Union[str, "os.PathLike[str]"],
                 process_name: Optional[str] = None) -> None:
        self.path = path
        self.tracer = Tracer(process_name=process_name)
        self._activation: Optional[_Activation] = None

    def __enter__(self) -> Tracer:
        self._activation = self.tracer.activate()
        self._activation.__enter__()
        return self.tracer

    def __exit__(self, *exc_info: Any) -> None:
        if self._activation is not None:
            self._activation.__exit__(*exc_info)
        self.tracer.save(self.path)


# ----------------------------------------------------------------------
# multi-process stitching + summaries (python -m repro.obs)
# ----------------------------------------------------------------------
def load_trace(path: Union[str, "os.PathLike[str]"]) -> Dict[str, Any]:
    """Load a trace file, accepting both the object and bare-list forms."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, list):
        payload = {"traceEvents": payload}
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace-event file")
    return payload


def merge_traces(paths: List[str]) -> Dict[str, Any]:
    """Stitch per-process trace files into one, labelling pid/tid lanes.

    Each input keeps its own pid (workers stamp ``os.getpid()`` at span
    time), so runs land in separate Perfetto process lanes.  When two
    inputs collide on a pid (recycled pids across hosts), the later one
    is re-homed to a fresh synthetic pid.
    """
    merged: List[Dict[str, Any]] = []
    seen_pids: Dict[int, str] = {}
    next_synthetic = 1_000_000
    for path in paths:
        payload = load_trace(path)
        events = payload["traceEvents"]
        pids = {e.get("pid", 0) for e in events}
        remap: Dict[int, int] = {}
        for pid in pids:
            owner = seen_pids.get(pid)
            if owner is not None and owner != path:
                remap[pid] = next_synthetic
                next_synthetic += 1
            else:
                seen_pids[pid] = path
        for event in events:
            if remap:
                pid = event.get("pid", 0)
                if pid in remap:
                    event = dict(event, pid=remap[pid])
            merged.append(event)
        label = os.path.basename(os.fspath(path))
        for pid in pids:
            final_pid = remap.get(pid, pid)
            seen_pids.setdefault(final_pid, path)
            merged.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": final_pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


def summarize_trace(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Aggregate complete events by span name: count / total / mean / max.

    Returns rows sorted by total duration, descending.  Durations are in
    milliseconds.
    """
    stats: Dict[str, Dict[str, float]] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        name = str(event.get("name", "?"))
        dur_ms = float(event.get("dur", 0.0)) / 1000.0
        row = stats.setdefault(name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += dur_ms
        row["max_ms"] = max(row["max_ms"], dur_ms)
    rows = []
    for name, row in stats.items():
        count = int(row["count"])
        rows.append(
            {
                "span": name,
                "count": count,
                "total_ms": row["total_ms"],
                "mean_ms": row["total_ms"] / count if count else 0.0,
                "max_ms": row["max_ms"],
            }
        )
    rows.sort(key=lambda r: r["total_ms"], reverse=True)
    return rows
