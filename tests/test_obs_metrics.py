"""Tests for the cross-subsystem metrics registry (``repro.obs.metrics``).

Covers the registry's concurrency contract (a threaded hammer must land
exact totals), the Prometheus text exposition, the engine's registry
tap (counters published once at ``snapshot()`` time), and the metrics
wired into the report store and work queue.
"""

from __future__ import annotations

import threading

import pytest

from repro.api.service import solve
from repro.api.specs import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.cluster.queue import WorkQueue
from repro.core.engine.instrumentation import DEFAULT_MAX_EVENTS, Instrumentation
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    reset_registry,
)
from repro.store.report_store import ReportStore


@pytest.fixture(autouse=True)
def fresh_registry():
    """Every test starts from an empty process-wide registry."""
    reset_registry()
    yield
    reset_registry()


def small_spec(seed: int = 5) -> ScenarioSpec:
    return ScenarioSpec(
        topology=TopologySpec(
            generator="paper_flat", params={"num_nodes": 12, "capacity": 100.0}, seed=3
        ),
        workload=WorkloadSpec(sizes=(3,), demand=10.0, seed=seed),
        routing="ip",
        solver="max_flow",
        solver_params={"approximation_ratio": 0.7},
    )


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
def test_counter_monotone_and_ignores_negative():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    counter.inc(-100.0)  # ignored: counters only go up
    assert counter.value == 3.5


def test_gauge_moves_both_ways():
    gauge = Gauge()
    gauge.set(10.0)
    gauge.inc(2.0)
    assert gauge.value == 12.0
    gauge.set(7.0)
    assert gauge.value == 7.0


def test_histogram_cumulative_buckets_and_quantile():
    hist = Histogram(buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5, 5.0):
        hist.observe(value)
    snap = hist.snapshot()
    # Cumulative: every bucket includes everything below it; +Inf == count.
    assert snap["buckets"][repr(0.01)] == 1
    assert snap["buckets"][repr(0.1)] == 3
    assert snap["buckets"][repr(1.0)] == 4
    assert snap["buckets"]["+Inf"] == 5
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(5.605)
    assert hist.quantile(0.5) == 0.1
    # 5.0 sits past the last bound: the quantile clamps to it.
    assert hist.quantile(1.0) == 1.0


def test_histogram_requires_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=())


# ----------------------------------------------------------------------
# the registry: identity, typing, threading
# ----------------------------------------------------------------------
def test_registry_returns_same_instrument_per_name_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("x_total", "help", labels={"k": "a"})
    b = reg.counter("x_total", "help", labels={"k": "a"})
    c = reg.counter("x_total", "help", labels={"k": "b"})
    assert a is b
    assert a is not c


def test_registry_rejects_type_conflicts():
    reg = MetricsRegistry()
    reg.counter("x_total")
    with pytest.raises(ValueError):
        reg.gauge("x_total")


def test_threaded_hammer_lands_exact_totals():
    """N threads x M increments through registry lookups: exact counts."""
    reg = MetricsRegistry()
    threads, increments = 8, 2000
    barrier = threading.Barrier(threads)

    def hammer(worker: int) -> None:
        barrier.wait()
        for i in range(increments):
            # Resolve through the registry each time — the contended path.
            reg.counter("hammer_total").inc()
            reg.gauge("hammer_last").set(float(worker))
            reg.histogram("hammer_seconds", buckets=(0.5, 1.0)).observe(
                (i % 3) * 0.4
            )

    pool = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert reg.counter("hammer_total").value == threads * increments
    hist = reg.histogram("hammer_seconds", buckets=(0.5, 1.0))
    assert hist.count == threads * increments
    assert hist.snapshot()["buckets"]["+Inf"] == threads * increments


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def _parse_exposition(text: str):
    """Parse the text format into {metric_line_name: value} + meta lines."""
    samples, helps, types = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind
        elif line:
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples, helps, types


def test_render_prometheus_exposition_parses():
    reg = MetricsRegistry()
    reg.counter("repro_t_hits_total", "cache hits").inc(3)
    reg.counter("repro_t_lookups_total", "lookups", labels={"outcome": "miss"}).inc(2)
    reg.gauge("repro_t_depth", "queue depth").set(7)
    hist = reg.histogram("repro_t_seconds", "latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(50.0)

    text = reg.render_prometheus()
    samples, helps, types = _parse_exposition(text)

    assert helps["repro_t_hits_total"] == "cache hits"
    assert types["repro_t_hits_total"] == "counter"
    assert types["repro_t_depth"] == "gauge"
    assert types["repro_t_seconds"] == "histogram"
    assert samples["repro_t_hits_total"] == 3
    assert samples['repro_t_lookups_total{outcome="miss"}'] == 2
    assert samples["repro_t_depth"] == 7
    # Histogram: cumulative buckets, +Inf equals _count, _sum present.
    assert samples['repro_t_seconds_bucket{le="0.1"}'] == 1
    assert samples['repro_t_seconds_bucket{le="1.0"}'] == 2
    assert samples['repro_t_seconds_bucket{le="+Inf"}'] == 3
    assert samples["repro_t_seconds_count"] == 3
    assert samples["repro_t_seconds_sum"] == pytest.approx(50.55)


def test_label_values_are_escaped():
    reg = MetricsRegistry()
    reg.counter("esc_total", labels={"k": 'a"b\\c\nd'}).inc()
    text = reg.render_prometheus()
    assert 'esc_total{k="a\\"b\\\\c\\nd"} 1' in text


def test_reset_registry_keeps_setting_drops_samples():
    registry().counter("r_total").inc(9)
    fresh = reset_registry()
    assert registry() is fresh
    assert fresh.counter("r_total").value == 0


# ----------------------------------------------------------------------
# the engine registry tap (satellite: no hot-loop branches)
# ----------------------------------------------------------------------
def test_engine_counters_published_once_at_snapshot():
    spec = small_spec(seed=21)
    solve(spec)
    reg = registry()
    steps = reg.counter("repro_engine_steps_total").value
    assert steps > 0
    assert reg.counter("repro_engine_runs_total").value == 1
    assert (
        reg.counter("repro_engine_oracle_rounds_total", labels={"front": "batched"}).value
        > 0
    )
    # snapshot() ran once inside solve(); publishing is idempotent, so a
    # second snapshot of the same run must not double-count.
    solve(small_spec(seed=22))
    assert reg.counter("repro_engine_runs_total").value == 2


def test_publish_metrics_idempotent_per_run():
    instr = Instrumentation()
    instr.steps = 7
    instr.snapshot()
    instr.snapshot()  # e.g. report re-serialized
    instr.publish_metrics()
    reg = registry()
    assert reg.counter("repro_engine_runs_total").value == 1
    assert reg.counter("repro_engine_steps_total").value == 7


def test_solve_outcome_counter_tracks_cache_chain(tmp_path):
    spec = small_spec(seed=31)
    store = ReportStore(tmp_path / "store")
    solve(spec, store=store)
    solve(spec, store=store)  # second call: a store hit
    reg = registry()
    assert reg.counter("repro_solve_total", labels={"outcome": "cold"}).value == 1
    assert reg.counter("repro_solve_total", labels={"outcome": "store"}).value == 1


# ----------------------------------------------------------------------
# store + queue wiring
# ----------------------------------------------------------------------
def test_store_metrics_count_lookups_and_puts(tmp_path):
    spec = small_spec(seed=41)
    store = ReportStore(tmp_path / "store")
    report = solve(spec)
    store.put(report)
    assert store.get(spec.canonical_key) is not None
    assert store.get("absent-key") is None
    reg = registry()
    assert reg.counter("repro_store_puts_total").value == 1
    assert (
        reg.counter("repro_store_lookups_total", labels={"outcome": "hit"}).value == 1
    )
    assert (
        reg.counter("repro_store_lookups_total", labels={"outcome": "miss"}).value >= 1
    )
    assert reg.histogram("repro_store_put_seconds").count == 1


def test_queue_metrics_claim_complete_and_latency(tmp_path):
    queue = WorkQueue(tmp_path / "queue")
    queue.submit([small_spec(seed=51)])
    task = queue.claim("worker-1")
    assert task is not None
    assert task.claimed_at > 0
    queue.complete(task)
    reg = registry()
    assert reg.counter("repro_queue_claims_total").value == 1
    assert reg.counter("repro_queue_completes_total").value == 1
    assert reg.histogram("repro_queue_claim_to_complete_seconds").count == 1


# ----------------------------------------------------------------------
# dropped events and the default max_events
# ----------------------------------------------------------------------
def test_dropped_events_count_alike_with_or_without_listener():
    # Events past the log bound count as dropped whether or not a live
    # listener still received them, so the snapshot is the same.
    quiet = Instrumentation(max_events=2)
    seen = []
    watched = Instrumentation(max_events=2)
    watched.add_listener(seen.append)
    for instr in (quiet, watched):
        for step in range(5):
            instr.emit("phase", step)
    assert len(seen) == 5
    assert quiet.snapshot() == watched.snapshot()
    assert watched.snapshot()["dropped_events"] == 3
    reg = registry()
    assert reg.counter("repro_engine_events_dropped_total").value == 6


def test_instrumentation_depends_only_on_the_spec():
    # A run long enough to overflow the event log, solved with and
    # without a live listener: the report's telemetry must be the same.
    spec = small_spec(seed=5).with_solver("max_flow", approximation_ratio=0.85)
    seen = []
    quiet = solve(spec).solution.instrumentation
    watched = solve(spec, on_event=seen.append).solution.instrumentation
    assert quiet["dropped_events"] > 0
    assert len(seen) == quiet["steps"]
    assert quiet == watched


def test_default_max_events_is_256():
    # Every solver logs with this bound, and it stays the canonical 256
    # so persisted report bytes and canonical keys are unchanged.
    assert DEFAULT_MAX_EVENTS == 256
    assert Instrumentation()._max_events == DEFAULT_MAX_EVENTS


# ----------------------------------------------------------------------
# ReportStore under concurrent access (satellite: guarded counters)
# ----------------------------------------------------------------------
def test_report_store_concurrent_hits_and_misses_are_exact(tmp_path):
    store = ReportStore(tmp_path / "store")
    spec = small_spec(seed=71)
    store.put(solve(spec))
    key = spec.canonical_key

    threads, rounds = 8, 50
    barrier = threading.Barrier(threads)
    errors = []

    def worker(index: int) -> None:
        barrier.wait()
        try:
            for r in range(rounds):
                assert store.get(key) is not None
                assert store.get(f"missing-{index}-{r}") is None
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(w,)) for w in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert not errors
    # The unguarded ``self.hits += 1`` these counters replaced could tear
    # under this hammer; the lock makes the totals exact.
    assert store.hits == threads * rounds
    assert store.misses == threads * rounds


def test_default_latency_buckets_are_sorted():
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


# ----------------------------------------------------------------------
# fault-tolerance metric families on the exposition (PR 10 satellite)
# ----------------------------------------------------------------------
def test_fault_tolerance_families_reach_the_exposition(tmp_path):
    """Retry, lease, attempts, breaker and fault-point metrics all render.

    One pass of real activity per surface, then the Prometheus text must
    carry every family the fault-injection harness added — the same
    names the CI observability smoke greps on /metrics.
    """
    from repro import faults
    from repro.serve.breaker import CircuitBreaker

    # repro_retry_total{surface,outcome}: one store read recovered after
    # one injected fault.
    store = ReportStore(tmp_path / "store", durable=False)
    report = solve(small_spec(seed=82))
    store.put(report)
    store.clear_memory()
    with faults.fault_scope("store.get.read:raisex1"):
        assert store.get(report.canonical_key) is not None

    # repro_lease_renewals_total + repro_task_attempts: one claim whose
    # lease is renewed, then completed.
    queue = WorkQueue(tmp_path / "queue", lease_seconds=60.0, durable=False)
    queue.submit([small_spec(seed=81)])
    task = queue.claim("obs-smoke")
    assert task is not None
    assert queue.renew(task)
    queue.complete(task)

    # repro_serve_circuit_open: registered (closed = 0) at construction.
    CircuitBreaker(failure_threshold=3, reset_seconds=5.0)

    # repro_fault_point_hits_total / repro_fault_injections_total: one
    # armed crossing (delay of ~0s keeps the test instant).
    with faults.fault_scope("obs.smoke:delay=0"):
        faults.point("obs.smoke")

    text = registry().render_prometheus()
    for family in (
        "repro_retry_total",
        "repro_lease_renewals_total",
        "repro_task_attempts_bucket",
        "repro_serve_circuit_open",
        "repro_fault_point_hits_total",
        "repro_fault_injections_total",
    ):
        assert family in text, f"{family} missing from exposition:\n{text}"
    assert 'surface="store.get"' in text
    assert 'outcome="recovered"' in text
