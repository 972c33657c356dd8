"""Tests for hierarchical trace spans (``repro.obs.tracing``).

The load-bearing invariants: span counts match the engine's own
instrumentation exactly (one ``engine.step`` span per step, one
``oracle_round`` span per query round), child spans nest
inside their parents' intervals, tracing never changes solver outputs,
and multi-process traces merge into distinct Perfetto lanes.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api.service import solve, solve_many
from repro.api.specs import ArrivalSpec, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.obs import __main__ as obs_cli
from repro.obs.tracing import (
    NULL_SPAN,
    Tracer,
    current_tracer,
    load_trace,
    maybe_span,
    merge_traces,
    summarize_trace,
    trace_to,
)


def small_spec(seed: int = 5, **overrides) -> ScenarioSpec:
    fields = dict(
        topology=TopologySpec(
            generator="paper_flat", params={"num_nodes": 12, "capacity": 100.0}, seed=3
        ),
        workload=WorkloadSpec(sizes=(3,), demand=10.0, seed=seed),
        routing="ip",
        solver="max_flow",
        solver_params={"approximation_ratio": 0.7},
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def spans_named(events, name):
    return [e for e in events if e.get("ph") == "X" and e["name"] == name]


def contains(outer, inner) -> bool:
    """Whether ``inner``'s interval sits inside ``outer``'s."""
    return (
        outer["ts"] <= inner["ts"]
        and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    )


# ----------------------------------------------------------------------
# activation mechanics
# ----------------------------------------------------------------------
def test_maybe_span_is_null_when_inactive():
    assert current_tracer() is None
    assert maybe_span("anything") is NULL_SPAN
    with maybe_span("anything") as span:
        span.set(key="value")  # no-op, no error


def test_activation_is_scoped_and_restores_prior():
    outer, inner = Tracer(), Tracer()
    with outer.activate():
        assert current_tracer() is outer
        with inner.activate():
            assert current_tracer() is inner
            with maybe_span("x"):
                pass
        assert current_tracer() is outer
    assert current_tracer() is None
    assert len(inner.events) == 1
    assert len(outer.events) == 0


def test_activation_is_thread_local():
    tracer = Tracer()
    seen_in_thread = []

    def probe():
        seen_in_thread.append(current_tracer())

    with tracer.activate():
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
    assert seen_in_thread == [None]


def test_span_records_complete_event_with_args():
    tracer = Tracer()
    with tracer.activate():
        with maybe_span("work", step=3) as span:
            span.set(outcome="done")
    (event,) = tracer.events
    assert event["ph"] == "X"
    assert event["name"] == "work"
    assert event["dur"] >= 0
    assert event["args"] == {"step": 3, "outcome": "done"}
    assert event["pid"] > 0 and event["tid"] > 0


# ----------------------------------------------------------------------
# the solve round trip
# ----------------------------------------------------------------------
def test_trace_round_trip_span_counts_match_instrumentation(tmp_path):
    """Spans are exact: one per step, one per oracle round."""
    path = tmp_path / "solve.trace.json"
    report = solve(small_spec(seed=11), trace=path)
    instr = report.solution.instrumentation

    payload = load_trace(path)
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ms"

    steps = spans_named(events, "engine.step")
    rounds = spans_named(events, "oracle_round")
    solves = spans_named(events, "solve")
    assert len(solves) == 1
    assert len(spans_named(events, "build_instance")) == 1
    assert len(spans_named(events, "solve_instance")) == 1
    assert len(steps) == instr["steps"] > 0
    assert len(rounds) == instr["batched_rounds"] + instr["per_session_rounds"]

    # Nesting: every engine.step sits inside the solve span, and every
    # oracle_round inside some engine.step.
    solve_span = solves[0]
    assert all(contains(solve_span, s) for s in steps)
    for oracle_span in rounds:
        assert any(contains(step, oracle_span) for step in steps)
    assert solve_span["args"]["outcome"] == "cold"


def test_trace_with_live_tracer_accumulates_across_solves():
    tracer = Tracer()
    solve(small_spec(seed=12), trace=tracer)
    solve(small_spec(seed=13), trace=tracer)
    assert len(spans_named(tracer.events, "solve")) == 2


def test_store_hit_span_has_store_outcome(tmp_path):
    from repro.store.report_store import ReportStore

    store = ReportStore(tmp_path / "store")
    spec = small_spec(seed=14)
    solve(spec, store=store)
    tracer = Tracer()
    solve(spec, store=store, trace=tracer)
    (solve_span,) = spans_named(tracer.events, "solve")
    assert solve_span["args"]["outcome"] == "store"
    # A store hit performs no engine work, so no step spans.
    assert not spans_named(tracer.events, "engine.step")


def test_tracing_does_not_change_solver_outputs():
    plain = solve(small_spec(seed=15))
    traced = solve(small_spec(seed=15), trace=Tracer())

    def strip(report):
        # instrumentation carries wall-clock oracle timings — per-run,
        # like wall_seconds — so compare it without the *_seconds keys.
        payload = {
            k: v for k, v in report.to_jsonable().items() if k != "wall_seconds"
        }
        payload["instrumentation"] = {
            k: v
            for k, v in payload["instrumentation"].items()
            if not k.endswith("_seconds")
        }
        return payload

    assert strip(plain) == strip(traced)


def test_online_solve_traces_per_session_rounds(tmp_path):
    path = tmp_path / "online.trace.json"
    spec = small_spec(
        seed=16,
        workload=WorkloadSpec(sizes=(3, 2), demand=10.0, seed=5),
        solver="online",
        solver_params={"sigma": 10.0},
        arrivals=ArrivalSpec(replication=2, seed=11, demand=1.0),
    )
    report = solve(spec, trace=path)
    instr = report.solution.instrumentation
    events = load_trace(path)["traceEvents"]
    assert len(spans_named(events, "engine.step")) == instr["steps"]
    assert len(spans_named(events, "oracle_round")) == (
        instr["batched_rounds"] + instr["per_session_rounds"]
    )


def test_solve_many_serial_path_emits_solve_spans():
    tracer = Tracer()
    with tracer.activate():
        solve_many([small_spec(seed=17), small_spec(seed=18)], jobs=1, use_cache=False)
    assert len(spans_named(tracer.events, "solve")) == 2


# ----------------------------------------------------------------------
# trace_to / save / load
# ----------------------------------------------------------------------
def test_trace_to_writes_on_exit(tmp_path):
    path = tmp_path / "nested" / "out.trace.json"
    with trace_to(path, process_name="unit-test"):
        with maybe_span("inside"):
            pass
    payload = load_trace(path)
    metas = [e for e in payload["traceEvents"] if e.get("ph") == "M"]
    assert metas and metas[0]["args"]["name"] == "unit-test"
    assert len(spans_named(payload["traceEvents"], "inside")) == 1


def test_load_trace_accepts_bare_list(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps([{"name": "x", "ph": "X", "ts": 0, "dur": 1}]))
    payload = load_trace(path)
    assert len(payload["traceEvents"]) == 1


def test_load_trace_rejects_non_trace(tmp_path):
    path = tmp_path / "not.json"
    path.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError):
        load_trace(path)


# ----------------------------------------------------------------------
# merge + summary
# ----------------------------------------------------------------------
def _write_trace(path, pid, names):
    tracer = Tracer(pid=pid)
    with tracer.activate():
        for name in names:
            with tracer.span(name):
                pass
    tracer.save(path)


def test_merge_traces_rehomes_colliding_pids(tmp_path):
    a, b = tmp_path / "a.trace.json", tmp_path / "b.trace.json"
    _write_trace(a, pid=42, names=["alpha"])
    _write_trace(b, pid=42, names=["beta"])  # same pid: recycled across hosts
    merged = merge_traces([str(a), str(b)])
    spans = [e for e in merged["traceEvents"] if e.get("ph") == "X"]
    pids = {e["pid"] for e in spans}
    assert len(pids) == 2  # the collision was re-homed
    labels = {
        e["pid"]: e["args"]["name"]
        for e in merged["traceEvents"]
        if e.get("ph") == "M"
    }
    assert set(labels.values()) == {"a.trace.json", "b.trace.json"}
    assert set(labels) == pids


def test_merge_traces_keeps_distinct_pids(tmp_path):
    a, b = tmp_path / "a.trace.json", tmp_path / "b.trace.json"
    _write_trace(a, pid=100, names=["alpha"])
    _write_trace(b, pid=200, names=["beta"])
    merged = merge_traces([str(a), str(b)])
    spans = [e for e in merged["traceEvents"] if e.get("ph") == "X"]
    assert {e["pid"] for e in spans} == {100, 200}


def test_summarize_trace_aggregates_by_name():
    payload = {
        "traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 1000.0},
            {"name": "a", "ph": "X", "ts": 0, "dur": 3000.0},
            {"name": "b", "ph": "X", "ts": 0, "dur": 500.0},
            {"name": "meta", "ph": "M"},
        ]
    }
    rows = summarize_trace(payload)
    assert [r["span"] for r in rows] == ["a", "b"]
    assert rows[0]["count"] == 2
    assert rows[0]["total_ms"] == pytest.approx(4.0)
    assert rows[0]["mean_ms"] == pytest.approx(2.0)
    assert rows[0]["max_ms"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# the CLI (python -m repro.obs)
# ----------------------------------------------------------------------
def test_cli_merge_and_summary(tmp_path, capsys):
    a, b = tmp_path / "a.trace.json", tmp_path / "b.trace.json"
    _write_trace(a, pid=1, names=["alpha", "alpha"])
    _write_trace(b, pid=2, names=["beta"])
    out = tmp_path / "merged.trace.json"
    assert obs_cli.main(["merge", str(out), str(a), str(b)]) == 0
    assert "3 spans" in capsys.readouterr().out
    assert obs_cli.main(["summary", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "alpha" in printed and "beta" in printed


def test_cli_dump_renders_registry(capsys):
    from repro.obs.metrics import reset_registry

    reg = reset_registry()
    try:
        reg.counter("cli_dump_total").inc(5)
        assert obs_cli.main(["dump"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["cli_dump_total"]["samples"][0]["value"] == 5
        assert obs_cli.main(["dump", "--format", "prom"]) == 0
        assert "cli_dump_total 5" in capsys.readouterr().out
    finally:
        reset_registry()


# ----------------------------------------------------------------------
# worker trace files (cluster --trace-dir)
# ----------------------------------------------------------------------
def test_worker_writes_one_trace_per_task(tmp_path):
    from repro.cluster.queue import WorkQueue
    from repro.cluster.worker import run_worker

    specs = [small_spec(seed=31), small_spec(seed=32)]
    queue = WorkQueue(tmp_path / "queue")
    queue.submit(specs)
    trace_dir = tmp_path / "traces"
    stats = run_worker(
        queue,
        tmp_path / "store",
        exit_when_empty=True,
        trace_dir=trace_dir,
    )
    assert stats["completed"] == 2
    files = sorted(trace_dir.glob("*.trace.json"))
    assert len(files) == 2
    for spec in specs:
        payload = load_trace(trace_dir / f"{spec.canonical_key}.trace.json")
        assert spans_named(payload["traceEvents"], "solve")
