"""Deterministic fault-injection and crash-safety tests.

The proof obligations of the robustness PR, layered:

* unit semantics of the injector itself (spec grammar, hit counting,
  deterministic probabilistic rules, scoping);
* the report store's bounded read retry (classification, attempt
  accounting, delays, metrics);
* in-process *raise* sweeps over every declared fault point of
  ``store.put`` and the queue lifecycle, asserting the invariants that
  matter: no lost task, no duplicate completion, corrupt entries
  quarantined — never served;
* subprocess *crash* sweeps (``os._exit`` at the exact instruction
  boundary) over a live worker, followed by a clean resume that must
  drain the queue to reports bit-identical to a serial ``solve_many``;
* heartbeat lease renewal (a slow solve under a short lease completes
  exactly once) and poison-task dead-lettering.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import api, faults
from repro.api import ScenarioSpec, SessionSpec, TopologySpec, WorkloadSpec
from repro.api.service import solve
from repro.cluster.queue import WorkQueue
from repro.cluster.worker import run_worker, spawn_local_workers, worker_command
from repro.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    FaultRule,
    InjectedFault,
    configure_faults,
    fault_scope,
    parse_fault_spec,
)
from repro.obs import metrics as obs_metrics
import repro.serve.relay  # noqa: F401 - imports declare the relay fault points
from repro.store.report_store import ReportStore
from repro.util.errors import ConfigurationError

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _spec(rows: int) -> ScenarioSpec:
    return ScenarioSpec(
        topology=TopologySpec("grid", {"rows": rows, "cols": 3, "capacity": 10.0}),
        workload=WorkloadSpec(
            sessions=(SessionSpec((0, 4, 8), demand=5.0, name="diag"),)
        ),
        solver="max_flow",
        solver_params={"approximation_ratio": 0.8},
    )


def _strip(report_jsonable: dict) -> dict:
    return {
        k: v
        for k, v in report_jsonable.items()
        if k not in ("wall_seconds", "cached", "instrumentation")
    }


def _counter_value(name: str, **labels) -> float:
    return obs_metrics.registry().counter(name, labels=labels or None).value


@pytest.fixture(autouse=True)
def fresh_caches():
    api.clear_caches()
    yield
    api.clear_caches()


@pytest.fixture(autouse=True)
def no_fault_leaks():
    """Faults armed by a test must never leak into the next one."""
    assert faults.active_plan() is None
    yield
    configure_faults(None)


def _worker_env(spec_string: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if spec_string:
        env[faults.FAULTS_ENV_VAR] = spec_string
    else:
        env.pop(faults.FAULTS_ENV_VAR, None)
    return env


# ----------------------------------------------------------------------
# The injector: grammar, hit accounting, scoping
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parses_the_full_grammar(self):
        rules = parse_fault_spec(
            "store.put.rename:crash@2, store.get.read:raisex2,"
            "queue.claim.rename:delay=0.05x*,store.put.write:truncate=0.25,"
            "relay.append:raise%0.25~7"
        )
        by_point = {rule.point: rule for rule in rules}
        assert by_point["store.put.rename"].action == "crash"
        assert by_point["store.put.rename"].at == 2
        assert by_point["store.get.read"].times == 2
        assert by_point["queue.claim.rename"].action == "delay"
        assert by_point["queue.claim.rename"].param == 0.05
        assert by_point["queue.claim.rename"].times is None  # x* = unlimited
        assert by_point["store.put.write"].param == 0.25
        assert by_point["relay.append"].probability == 0.25
        assert by_point["relay.append"].seed == 7

    def test_rejects_malformed_specs(self):
        for bad in ("no-colon", "p:", "p:explode", "p:raise@0", "p:raise%1.5"):
            with pytest.raises(ConfigurationError):
                parse_fault_spec(bad)

    def test_raise_fires_at_the_exact_hit(self):
        with fault_scope("p.x:raise@3"):
            faults.point("p.x")
            faults.point("p.x")
            with pytest.raises(InjectedFault):
                faults.point("p.x")
            faults.point("p.x")  # times=1: armed once, then spent

    def test_unlimited_rule_fires_every_hit(self):
        with fault_scope("p.y:raisex*"):
            for _ in range(5):
                with pytest.raises(InjectedFault):
                    faults.point("p.y")

    def test_truncate_only_acts_at_mangle_seams(self):
        with fault_scope("p.z:truncate=0.5x*"):
            faults.point("p.z")  # no data: nothing to truncate, no error
            assert faults.mangle("p.z", b"12345678") == b"1234"

    def test_probabilistic_rules_replay_bit_identically(self):
        def draw() -> list:
            with fault_scope("p.r:raisex*%0.5~1234") as plan:
                outcomes = []
                for _ in range(32):
                    try:
                        faults.point("p.r")
                        outcomes.append(0)
                    except InjectedFault:
                        outcomes.append(1)
                assert plan is not None
                return outcomes

        first, second = draw(), draw()
        assert first == second
        assert 0 < sum(first) < 32  # it actually flips both ways

    def test_scope_restores_the_previous_plan(self):
        assert faults.active_plan() is None
        with fault_scope("a.b:raise"):
            outer = faults.active_plan()
            assert outer is not None
            with fault_scope(None):
                assert faults.active_plan() is None
            assert faults.active_plan() is outer
        assert faults.active_plan() is None

    def test_configure_accepts_rules_and_plans(self):
        plan = configure_faults([FaultRule(point="q.q", action="delay", param=0.0)])
        assert isinstance(plan, FaultPlan)
        assert plan.describe() == {"q.q": ["delay"]}
        assert configure_faults(plan) is plan
        assert configure_faults("") is None
        assert faults.active_plan() is None

    def test_disabled_points_are_no_ops(self):
        assert faults.active_plan() is None
        assert faults.point("not.armed") is None
        payload = b"payload"
        assert faults.mangle("not.armed", payload) is payload

    def test_disabled_point_costs_under_1500ns(self):
        # The seams stay in hot I/O paths for good, so with no plan a
        # point must cost one global load and an ``is None`` test.
        calls = 50_000
        with fault_scope(None):
            start = time.perf_counter()
            for _ in range(calls):
                faults.point("not.armed")
            ns_per_call = (time.perf_counter() - start) / calls * 1e9
        assert 0 < ns_per_call < 1500.0, ns_per_call

    def test_declared_catalogue_covers_the_hardened_seams(self):
        declared = set(faults.declared_points())
        assert {
            "store.put.write",
            "store.put.rename",
            "store.put.publish",
            "store.get.read",
            "queue.claim.rename",
            "queue.claim.lease",
            "queue.complete.rename",
            "queue.complete.lease",
            "queue.requeue.rename",
            "queue.requeue.lease",
            "queue.renew.write",
            "relay.append",
            "relay.tail.read",
        } <= declared
        assert faults.declared_points("store.put") == sorted(
            p for p in declared if p.startswith("store.put")
        )

    def test_hit_and_injection_counters(self):
        hits_before = _counter_value("repro_fault_point_hits_total", point="p.m")
        injected_before = _counter_value(
            "repro_fault_injections_total", point="p.m", action="delay"
        )
        with fault_scope("p.m:delay=0.0"):
            faults.point("p.m")
            faults.point("p.m")
        assert (
            _counter_value("repro_fault_point_hits_total", point="p.m")
            == hits_before + 2
        )
        assert (
            _counter_value("repro_fault_injections_total", point="p.m", action="delay")
            == injected_before + 1
        )

    def test_env_spec_arms_subprocesses(self):
        # The inheritance contract the crash sweep rides on: a child
        # process with REPRO_FAULTS in its env arms the plan at import.
        code = (
            "from repro import faults; import sys;"
            "plan = faults.active_plan();"
            "sys.exit(0 if plan and plan.describe() == {'a.b': ['raise']} else 1)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=_worker_env("a.b:raise"),
            timeout=60,
        )
        assert proc.returncode == 0


# ----------------------------------------------------------------------
# Store: the read's bounded retry
# ----------------------------------------------------------------------
def _retries(outcome: str) -> float:
    return _counter_value("repro_retry_total", surface="store.get", outcome=outcome)


class TestStoreReadRetry:
    @pytest.fixture
    def stored(self, tmp_path, monkeypatch):
        """A store holding one entry (memory front cleared); sleeps recorded."""
        slept = []
        monkeypatch.setattr("repro.store.report_store.time.sleep", slept.append)
        store = ReportStore(tmp_path, durable=False)
        report = solve(_spec(3))
        path = store.put(report)
        store.clear_memory()
        return store, report.canonical_key, path, slept

    def test_two_read_faults_are_retried_then_recovered(self, stored):
        store, key, _path, slept = stored
        before = {o: _retries(o) for o in ("retried", "recovered", "exhausted")}
        with fault_scope("store.get.read:raisex2"):
            assert store.get(key) is not None
        assert _retries("retried") == before["retried"] + 2
        assert _retries("recovered") == before["recovered"] + 1
        assert _retries("exhausted") == before["exhausted"]
        assert len(slept) == 2

    def test_persistent_fault_is_exhausted_and_keeps_the_entry(self, stored):
        store, key, path, slept = stored
        exhausted = _retries("exhausted")
        with fault_scope("store.get.read:raisex*"):
            assert store.get(key) is None
        assert _retries("exhausted") == exhausted + 1
        assert len(slept) == 2  # three attempts
        assert path.exists() and store.corrupt == 0

    def test_permission_error_is_one_rejected_attempt(self, stored, monkeypatch):
        store, key, path, slept = stored
        calls = []

        def refuse(entry_path):
            calls.append(entry_path)
            raise PermissionError(13, "Permission denied", str(entry_path))

        monkeypatch.setattr(store, "_read_entry", refuse)
        rejected, retried = _retries("rejected"), _retries("retried")
        assert store.get(key) is None
        assert calls == [path]
        assert _retries("rejected") == rejected + 1
        assert _retries("retried") == retried and slept == []
        assert path.exists() and store.corrupt == 0

    def test_delays_are_decorrelated_jitter_within_floor_and_cap(self, stored):
        store, key, _path, slept = stored
        for _ in range(20):
            with fault_scope("store.get.read:raisex*"):
                assert store.get(key) is None
        assert len(slept) == 40
        assert all(0.02 <= delay <= 0.25 for delay in slept)
        firsts, seconds = slept[0::2], slept[1::2]
        assert all(delay <= 0.04 for delay in firsts)
        assert all(b <= 2 * a for a, b in zip(firsts, seconds))
        assert len(set(slept)) > 1  # drawn, not a fixed ladder


# ----------------------------------------------------------------------
# Store: read retries, quarantine, interrupted-put sweep
# ----------------------------------------------------------------------
class TestStoreFaults:
    def test_get_retries_through_transient_read_faults(self, tmp_path):
        store = ReportStore(tmp_path, durable=False)
        report = solve(_spec(3))
        store.put(report)
        store.clear_memory()
        with fault_scope("store.get.read:raisex2"):
            fetched = store.get(report.canonical_key)
        assert fetched is not None
        assert _strip(fetched.to_jsonable()) == _strip(report.to_jsonable())
        assert store.corrupt == 0  # an I/O blip is never a corruption verdict

    def test_persistent_read_failure_degrades_to_miss_not_quarantine(self, tmp_path):
        store = ReportStore(tmp_path, durable=False)
        report = solve(_spec(3))
        path = store.put(report)
        store.clear_memory()
        with fault_scope("store.get.read:raisex*"):
            assert store.get(report.canonical_key) is None
        assert path.exists()  # the entry survives to be read next time
        assert store.corrupt == 0
        assert store.get(report.canonical_key) is not None

    def test_truncated_gzip_entry_is_quarantined(self, tmp_path):
        store = ReportStore(tmp_path, compress=True, durable=False)
        report = solve(_spec(3))
        with fault_scope("store.put.write:truncate=0.5"):
            path = store.put(report)
        store.clear_memory()
        assert path.exists()
        assert store.get(report.canonical_key) is None
        assert store.corrupt == 1
        assert not path.exists()  # quarantined out of the object tree
        # The poisoned entry is gone, so a fresh put round-trips again.
        store.put(report)
        assert store.get(report.canonical_key) is not None

    def test_put_interrupted_at_every_point_never_serves_garbage(self, tmp_path):
        points = faults.declared_points("store.put")
        assert points == ["store.put.publish", "store.put.rename", "store.put.write"]
        report = solve(_spec(3))
        key = report.canonical_key
        for index, point_name in enumerate(points):
            store = ReportStore(tmp_path / f"s{index}", durable=False)
            with fault_scope(f"{point_name}:raise"):
                try:
                    store.put(report)
                except OSError:
                    pass
            store.clear_memory()
            # Invariant: whatever instruction the put died on, a reader
            # sees either nothing or the complete verified report.
            fetched = store.get(key)
            if fetched is not None:
                assert _strip(fetched.to_jsonable()) == _strip(report.to_jsonable())
            assert store.corrupt == 0, point_name
            # And a clean re-put always restores full service.
            store.put(report)
            refetched = store.get(key)
            assert refetched is not None
            assert _strip(refetched.to_jsonable()) == _strip(report.to_jsonable())

    def test_durable_put_round_trips(self, tmp_path):
        store = ReportStore(tmp_path, durable=True)
        report = solve(_spec(3))
        store.put(report)
        store.clear_memory()
        assert store.get(report.canonical_key) is not None


# ----------------------------------------------------------------------
# Queue: interrupted-transition sweep, poison tasks, renewal semantics
# ----------------------------------------------------------------------
def _drain_queue(queue: WorkQueue, worker_id: str = "recovery") -> int:
    """Requeue anything lapsed, then claim/complete until empty."""
    queue.requeue_expired(now=time.time() + queue.lease_seconds + 3600.0)
    completed = 0
    while True:
        task = queue.claim(worker_id)
        if task is None:
            break
        queue.complete(task)
        completed += 1
    return completed


class TestQueueFaults:
    LIFECYCLE_POINTS = (
        "queue.submit.write",
        "queue.submit.rename",
        "queue.submit.publish",
        "queue.claim.rename",
        "queue.claim.lease",
        "queue.complete.rename",
        "queue.complete.lease",
    )

    def test_lifecycle_interrupted_at_every_point_loses_nothing(self, tmp_path):
        spec = _spec(3)
        for index, point_name in enumerate(self.LIFECYCLE_POINTS):
            queue = WorkQueue(tmp_path / f"q{index}", lease_seconds=60.0, durable=False)
            with fault_scope(f"{point_name}:raise"):
                try:
                    queue.submit([spec])
                    task = queue.claim("victim")
                    if task is not None:
                        queue.complete(task)
                except OSError:
                    pass
            # Recovery with no faults armed: submission is idempotent and
            # lapsed claims requeue, so the task must land in done/
            # exactly once — never lost, never duplicated, never stuck.
            queue.submit([spec])
            _drain_queue(queue)
            counts = queue.counts()
            assert counts["done"] == 1, point_name
            assert counts["pending"] == 0, point_name
            assert counts["claimed"] == 0, point_name
            assert counts["failed"] == 0, point_name
            assert queue.failures() == {}, point_name
            # No stray lease or attempts sidecars survive recovery.
            leases = list((queue.root / "leases").glob("*.lease")) if (
                queue.root / "leases"
            ).exists() else []
            assert leases == [], point_name

    def test_requeue_interrupted_then_recovered(self, tmp_path):
        spec = _spec(3)
        for index, point_name in enumerate(
            ("queue.requeue.rename", "queue.requeue.lease")
        ):
            queue = WorkQueue(tmp_path / f"r{index}", lease_seconds=60.0, durable=False)
            queue.submit([spec])
            assert queue.claim("crashed-worker") is not None
            forged_now = time.time() + queue.lease_seconds + 3600.0
            with fault_scope(f"{point_name}:raise"):
                try:
                    queue.requeue_expired(now=forged_now)
                except OSError:
                    pass
            _drain_queue(queue)
            assert queue.counts()["done"] == 1, point_name
            assert queue.failures() == {}, point_name

    def test_poison_task_dead_letters_after_max_attempts(self, tmp_path):
        queue = WorkQueue(
            tmp_path / "q", lease_seconds=60.0, max_attempts=3, durable=False
        )
        spec = _spec(3)
        queue.submit([spec])
        poison_before = _counter_value("repro_queue_poison_total")
        for attempt in range(3):
            task = queue.claim(f"victim-{attempt}")
            assert task is not None, f"attempt {attempt} found nothing to claim"
            # The worker "dies" without completing; its lease lapses.
            queue.requeue_expired(now=time.time() + queue.lease_seconds + 3600.0)
        counts = queue.counts()
        assert counts == {"pending": 0, "claimed": 0, "done": 0, "failed": 1}
        failures = queue.failures()
        assert "poison" in failures[spec.canonical_key]
        assert "max_attempts=3" in failures[spec.canonical_key]
        assert _counter_value("repro_queue_poison_total") == poison_before + 1
        # retry_failed resets the attempt budget: the key is claimable
        # again and completes (it does not instantly re-poison).
        assert queue.retry_failed() == 1
        assert _drain_queue(queue) == 1
        assert queue.counts()["done"] == 1

    def test_renew_extends_lease_and_detects_lost_ownership(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_seconds=60.0, durable=False)
        queue.submit([_spec(3)])
        task = queue.claim("original")
        assert task is not None
        renewals_before = _counter_value("repro_lease_renewals_total")
        future = time.time() + 1000.0
        assert queue.renew(task, now=future) is True
        assert _counter_value("repro_lease_renewals_total") == renewals_before + 1
        lease = queue._read_lease(task.key)
        assert lease["expires_at"] == pytest.approx(future + queue.lease_seconds)
        assert lease["renewals"] == 1
        # The renewed lease is what keeps requeue_expired's hands off.
        assert queue.requeue_expired(now=future + 1.0) == 0
        # Ownership loss: the lease lapses far enough out, a successor
        # re-claims the same name, and the original's renew answers False.
        assert queue.requeue_expired(now=future + queue.lease_seconds + 1.0) == 1
        successor = queue.claim("successor")
        assert successor is not None
        assert queue.renew(task) is False
        # The original's complete is the idempotent no-op; the successor
        # still owns the task and completes it exactly once.
        queue.complete(task)
        assert queue.counts()["claimed"] == 1
        queue.complete(successor)
        assert queue.counts()["done"] == 1


# ----------------------------------------------------------------------
# Heartbeat: a slow solve under a short lease completes exactly once
# ----------------------------------------------------------------------
class TestHeartbeat:
    def _run_two_workers(self, tmp_path, monkeypatch, heartbeat: bool) -> dict:
        import repro.api.service as service_module

        if not heartbeat:
            # A renew that keeps ownership but never pushes the lease
            # out: the lease lapses mid-solve exactly as with no beat.
            monkeypatch.setattr(WorkQueue, "renew", lambda self, task, now=None: True)

        real_solve = service_module.solve
        solve_calls = []
        solve_lock = threading.Lock()

        def slow_solve(spec, **kwargs):
            with solve_lock:
                solve_calls.append(threading.current_thread().name)
            time.sleep(1.2)
            return real_solve(spec, **kwargs)

        monkeypatch.setattr(service_module, "solve", slow_solve)
        queue = WorkQueue(tmp_path / "q", lease_seconds=0.3, durable=False)
        queue.submit([_spec(3)])
        store = ReportStore(tmp_path / "s", durable=False)
        results = {}

        def worker(name: str) -> None:
            results[name] = run_worker(
                queue,
                store,
                worker_id=name,
                poll_seconds=0.02,
                exit_when_empty=True,
            )

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        return {
            "queue": queue,
            "stats": results,
            "solve_calls": len(solve_calls),
        }

    def test_heartbeat_prevents_double_execution(self, tmp_path, monkeypatch):
        renewals_before = _counter_value("repro_lease_renewals_total")
        expirations_before = _counter_value("repro_queue_lease_expirations_total")
        outcome = self._run_two_workers(tmp_path, monkeypatch, heartbeat=True)
        # The solve takes 4x the lease window, yet renewal keeps the
        # claim owned: no second worker ever re-executes it.
        assert outcome["solve_calls"] == 1
        assert outcome["queue"].counts()["done"] == 1
        assert sum(s["completed"] for s in outcome["stats"].values()) == 1
        assert _counter_value("repro_lease_renewals_total") > renewals_before
        assert (
            _counter_value("repro_queue_lease_expirations_total")
            == expirations_before
        )

    def test_without_heartbeat_completion_is_still_exactly_once(
        self, tmp_path, monkeypatch
    ):
        # The double execution heartbeats fixed: the lease lapses
        # mid-solve and another worker re-executes — and because the
        # lease is stolen again before each solve lands, the task
        # ping-pongs every window without ever completing, until
        # max_attempts dead-letters it as poison.  Even in that storm
        # the safety invariants hold: every late complete() is an
        # idempotent no-op (at most one completion) and the task ends in
        # exactly one terminal state.
        outcome = self._run_two_workers(tmp_path, monkeypatch, heartbeat=False)
        assert outcome["solve_calls"] >= 2  # double execution really happened
        counts = outcome["queue"].counts()
        assert counts["done"] + counts["failed"] == 1
        assert counts["pending"] == 0 and counts["claimed"] == 0


# ----------------------------------------------------------------------
# Crash sweep: kill a live worker at every fault point, then resume
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_baseline():
    """Canonical key → stripped report for the sweep's two specs."""
    api.clear_caches()
    specs = [_spec(3), _spec(4)]
    reports = api.solve_many(specs, jobs=1)
    api.clear_caches()
    return (
        specs,
        {r.canonical_key: _strip(r.to_jsonable()) for r in reports},
    )


CRASH_POINTS = (
    "store.put.write",
    "store.put.rename",
    "store.put.publish",
    "queue.claim.rename",
    "queue.claim.lease",
    "queue.complete.rename",
    "queue.complete.lease",
)


class TestCrashSweep:
    @pytest.mark.parametrize("point_name", CRASH_POINTS)
    def test_kill_at_point_then_resume_loses_nothing(
        self, tmp_path, point_name, serial_baseline
    ):
        specs, baseline = serial_baseline
        queue_root = tmp_path / "queue"
        store_root = tmp_path / "store"
        queue = WorkQueue(queue_root, lease_seconds=0.5)
        queue.submit(specs)
        # A live worker subprocess inherits the fault plan from its
        # environment and dies — os._exit, no cleanup — at the armed
        # point, mid-drain.
        proc = subprocess.run(
            worker_command(
                queue_root,
                store_root,
                poll_seconds=0.05,
                exit_when_empty=True,
                lease_seconds=0.5,
            ),
            env=_worker_env(f"{point_name}:crash"),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == CRASH_EXIT_CODE, (
            f"worker did not crash at {point_name}: "
            f"rc={proc.returncode} stderr={proc.stderr[-500:]}"
        )
        assert f"injected crash at {point_name}" in proc.stderr
        # Clean resume in-process: lapsed claims requeue, and the batch
        # must complete with every report bit-identical to serial.
        queue.requeue_expired(now=time.time() + 3600.0)
        run_worker(queue, store_root, poll_seconds=0.02, exit_when_empty=True)
        counts = queue.counts()
        assert counts["done"] == len(specs), (point_name, counts)
        assert counts["pending"] == 0 and counts["claimed"] == 0, point_name
        assert queue.failures() == {}, point_name
        store = ReportStore(store_root)
        store.clear_memory()
        for spec in specs:
            fetched = store.get(spec.canonical_key)
            assert fetched is not None, (point_name, spec.canonical_key)
            assert _strip(fetched.to_jsonable()) == baseline[spec.canonical_key], (
                point_name
            )
        assert store.corrupt == 0, point_name


class TestCrashResumeBitIdentity:
    def test_crashed_then_resumed_two_worker_drain_matches_serial(self, tmp_path):
        # The headline acceptance criterion: a worker killed mid-batch,
        # then a fresh 2-worker drain over the same queue + store, must
        # produce exactly the serial solve_many result — no lost task,
        # no duplicate, no divergent report.
        specs = [_spec(rows) for rows in (3, 4, 5, 6)]
        serial = [
            _strip(r.to_jsonable()) for r in api.solve_many(specs, jobs=1)
        ]
        api.clear_caches()
        queue_root = tmp_path / "queue"
        store_root = tmp_path / "store"
        queue = WorkQueue(queue_root, lease_seconds=0.5)
        queue.submit(specs, num_shards=2)
        proc = subprocess.run(
            worker_command(
                queue_root,
                store_root,
                poll_seconds=0.05,
                exit_when_empty=True,
                lease_seconds=0.5,
            ),
            env=_worker_env("store.put.publish:crash@2"),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr[-500:]
        assert queue.counts()["done"] < len(specs)  # it really died mid-batch
        # Resume: two clean subprocess workers. The crashed worker's
        # claim re-enters pending via natural lease expiry (0.5s) — no
        # forged clocks — and the drain completes.
        with spawn_local_workers(
            2,
            queue_root,
            store_root,
            poll_seconds=0.05,
            exit_when_empty=True,
            lease_seconds=0.5,
            shutdown_timeout=240,
        ):
            pass
        counts = queue.counts()
        assert counts["done"] == len(specs)
        assert counts["pending"] == 0 and counts["claimed"] == 0
        assert queue.failures() == {}
        store = ReportStore(store_root)
        resumed = []
        for spec in specs:
            fetched = store.get(spec.canonical_key)
            assert fetched is not None
            resumed.append(_strip(fetched.to_jsonable()))
        assert resumed == serial


class TestKillNine:
    def test_sigkilled_worker_mid_drain_recovers_bit_identical(self, tmp_path):
        # A real SIGKILL, not an injected exit at a declared seam: the
        # worker dies wherever it is once one task is done and work
        # remains.  Expiring its lease and draining in-process must then
        # finish the batch with every report equal to a serial
        # solve_many, instrumentation included.
        specs = [
            ScenarioSpec(
                topology=TopologySpec(
                    "paper_flat", {"num_nodes": 32, "capacity": 100.0}, seed=s
                ),
                workload=WorkloadSpec(sizes=(4, 3), demand=100.0, seed=s + 1),
                solver="max_flow",
                solver_params={"approximation_ratio": 0.8},
            )
            for s in range(8)
        ]

        def strip(report):
            jsonable = report.to_jsonable()
            return {k: v for k, v in jsonable.items() if k not in ("wall_seconds", "cached")}

        expected = [strip(r) for r in api.solve_many(specs, jobs=1)]
        api.clear_caches()
        queue_root = tmp_path / "queue"
        store_root = tmp_path / "store"
        queue = WorkQueue(queue_root, lease_seconds=1.0, durable=False)
        queue.submit(specs)
        victim = subprocess.Popen(
            worker_command(
                queue_root,
                store_root,
                poll_seconds=0.05,
                exit_when_empty=True,
                lease_seconds=1.0,
            ),
            env=_worker_env(),
        )
        try:
            deadline = time.time() + 120
            while victim.poll() is None and time.time() < deadline:
                counts = queue.counts()
                if counts["done"] >= 1 and counts["pending"] + counts["claimed"] > 0:
                    break
                time.sleep(0.005)
            assert victim.poll() is None, f"worker exited before the kill: {queue.counts()}"
            os.kill(victim.pid, signal.SIGKILL)
            assert victim.wait(timeout=30) == -signal.SIGKILL
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)
        assert 1 <= queue.counts()["done"] < len(specs)

        queue.requeue_expired(now=time.time() + 3600.0)
        run_worker(
            queue, store_root, worker_id="recovery", poll_seconds=0.05, exit_when_empty=True
        )
        counts = queue.counts()
        assert counts["done"] == len(specs), counts
        assert counts["pending"] == 0 and counts["claimed"] == 0, counts
        assert counts["failed"] == 0, counts
        store = ReportStore(store_root)
        got = []
        for spec in specs:
            report = store.get(spec.canonical_key)
            assert report is not None, spec.canonical_key
            got.append(strip(report))
        assert got == expected
