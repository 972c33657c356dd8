"""Tests for the work-queue execution layer (``repro.cluster``).

The headline contract (an acceptance criterion of the subsystem): a
2-worker cooperative drain of a batch produces reports bit-identical to
a serial ``solve_many`` over the same specs.  Around it, unit coverage
for the claim/lease/complete lifecycle, crash-safe requeue of expired
leases, and the asyncio
``solve_many_async`` front end (streaming order, duplicate keys,
timeout without workers).
"""

import asyncio
import json
import math
import os
import time
from pathlib import Path

import pytest

from repro import api
from repro.api import ScenarioSpec, SessionSpec, TopologySpec, WorkloadSpec
from repro.cluster import (
    WorkQueue,
    as_reports_completed,
    run_worker,
    solve_many_async,
    spawn_local_workers,
)
from repro.cluster.queue import LOST
from repro.store import ReportStore
from repro.util.errors import ConfigurationError
from tests.test_api_cli import run_python


def _spec(rows: int) -> ScenarioSpec:
    return ScenarioSpec(
        topology=TopologySpec("grid", {"rows": rows, "cols": 3, "capacity": 10.0}),
        workload=WorkloadSpec(
            sessions=(SessionSpec((0, 4, 8), demand=5.0, name="diag"),)
        ),
        solver="max_flow",
        solver_params={"approximation_ratio": 0.8},
    )


def _flows(solution):
    return [
        (
            s.session.name,
            sorted((tf.tree.canonical_key(), tf.flow) for tf in s.tree_flows),
        )
        for s in solution.sessions
    ]


@pytest.fixture(autouse=True)
def fresh_caches():
    api.clear_caches()
    yield
    api.clear_caches()


class TestWorkQueue:
    def test_submit_is_idempotent_and_deduplicates(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        spec = _spec(3)
        queue.submit([spec, spec])
        queue.submit([spec])
        assert queue.counts() == {"pending": 1, "claimed": 0, "done": 0, "failed": 0}

    def test_claim_complete_lifecycle(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        spec = _spec(3)
        queue.submit([spec])
        task = queue.claim("worker-a")
        assert task is not None
        assert task.key == spec.canonical_key
        assert task.spec == spec
        assert queue.counts() == {"pending": 0, "claimed": 1, "done": 0, "failed": 0}
        assert queue.claim("worker-b") is None  # nothing left to claim
        queue.complete(task)
        assert queue.counts() == {"pending": 0, "claimed": 0, "done": 1, "failed": 0}
        assert (queue.root / "done" / f"{spec.canonical_key}.json").exists()
        assert queue.is_drained()
        queue.complete(task)  # idempotent

    def test_submit_accepts_and_ignores_num_shards(self, tmp_path):
        # The end-to-end benchmark still submits with num_shards: the
        # keyword is accepted, writes nothing beside the task files, and
        # any worker claims the task.
        queue = WorkQueue(tmp_path / "q")
        spec = _spec(3)
        assert queue.submit([spec], num_shards=2) == [spec.canonical_key]
        assert [p.name for p in queue.root.iterdir()] == ["pending"]
        task = queue.claim("worker-a")
        assert task is not None and task.key == spec.canonical_key

    def test_expired_lease_is_requeued(self, tmp_path):
        # Crash safety: a worker that claims and dies must not strand
        # the task — once the lease lapses any worker can requeue it.
        queue = WorkQueue(tmp_path / "q", lease_seconds=0.05)
        queue.submit([_spec(3)])
        task = queue.claim("doomed-worker")
        assert task is not None
        assert queue.requeue_expired() == 0  # lease still live
        time.sleep(0.1)
        assert queue.requeue_expired() == 1
        assert queue.counts() == {"pending": 1, "claimed": 0, "done": 0, "failed": 0}
        rescued = queue.claim("rescuer")
        assert rescued is not None and rescued.key == task.key
        # The late original completion is harmless (idempotent).
        queue.complete(task)
        queue.complete(rescued)
        assert queue.counts()["done"] == 1

    def test_stale_worker_cannot_fail_a_reclaimed_task(self, tmp_path):
        # Regression: after a lease expires and a successor re-claims
        # the same task name, the original worker's late fail() and
        # complete() must be no-ops — dead-lettering the successor's
        # live claim would strand good work.
        queue = WorkQueue(tmp_path / "q", lease_seconds=0.05)
        queue.submit([_spec(3)])
        stale = queue.claim("worker-a")
        time.sleep(0.1)
        queue.requeue_expired()
        fresh = queue.claim("worker-b")
        assert fresh is not None
        queue.fail(stale, "late transient error")  # must not dead-letter
        assert queue.counts()["failed"] == 0
        assert queue.counts()["claimed"] == 1
        queue.complete(stale)  # must not drop the successor's lease
        assert queue._read_lease(fresh.key) is not None
        queue.complete(fresh)
        assert queue.counts()["done"] == 1

    def test_missing_lease_uses_claim_age_grace(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_seconds=0.05)
        queue.submit([_spec(3)])
        task = queue.claim("worker-a")
        queue._lease_path(task.key).unlink()  # worker died pre-lease-write
        assert queue.requeue_expired() == 0  # claim file still fresh
        time.sleep(0.1)
        assert queue.requeue_expired() == 1

    def test_reopen_done_task(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        spec = _spec(3)
        queue.submit([spec])
        task = queue.claim("worker-a")
        queue.complete(task)
        assert queue.reopen(spec.canonical_key) is True
        assert queue.counts() == {"pending": 1, "claimed": 0, "done": 0, "failed": 0}
        assert queue.reopen("0" * 64) is False

    def test_outcomes_of_keys_missing_from_the_store(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        names = ("stored", "failed", "pruned", "pending")
        specs = {name: _spec(rows) for name, rows in zip(names, (3, 4, 5, 6))}
        key = {name: spec.canonical_key for name, spec in specs.items()}
        queue.submit([specs["stored"], specs["failed"], specs["pruned"]])
        while (task := queue.claim("worker-a")) is not None:
            if task.key == key["failed"]:
                queue.fail(task, "ValueError: boom")
            else:
                queue.complete(task)
        queue.submit([specs["pending"]])
        # The caller found only "stored" in the store: "pruned" is done
        # but its report is gone, and "pending" is still in flight.
        assert queue.outcomes(key.values(), {key["stored"]}) == {
            key["failed"]: "ValueError: boom",
            key["pruned"]: LOST,
        }
        assert queue.outcomes([key["stored"]], {key["stored"]}) == {}

    def test_outcomes_read_only_the_asked_keys_sidecars(self, tmp_path, monkeypatch):
        queue = WorkQueue(tmp_path / "q", durable=False)
        specs = [_spec(rows) for rows in (3, 4, 5, 6)]
        queue.submit(specs)
        while (task := queue.claim("worker-a")) is not None:
            queue.fail(task, f"ValueError: {task.key[:6]}")
        failed = tmp_path / "q" / "failed"
        (failed / f"{specs[1].canonical_key}.error").unlink()
        reads = []
        read_text = Path.read_text

        def counted(path, *args, **kwargs):
            if path.name.endswith(".error"):
                reads.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        first, second = specs[0].canonical_key, specs[1].canonical_key
        assert queue.outcomes([first], set()) == {first: f"ValueError: {first[:6]}"}
        assert len(reads) == 1
        # A missing sidecar reads as the fallback message.
        assert queue.outcomes([second], set()) == {
            second: "unknown error (sidecar missing or unreadable)"
        }

    def test_key_lookups_list_no_history(self, tmp_path, monkeypatch):
        # Every question about given keys reads only their own paths, so
        # its cost does not grow with the tasks done/ and failed/ hold.
        queue = WorkQueue(tmp_path / "q", durable=False)
        specs = [_spec(rows) for rows in range(3, 23)]
        queue.submit(specs)
        claimed = []
        while (task := queue.claim("worker-a")) is not None:
            if len(claimed) % 2:
                queue.fail(task, "ValueError: boom")
            else:
                queue.complete(task)
            claimed.append(task.key)
        done, failed = claimed[:2]
        missing = "0" * 64
        history = {queue.root / "done", queue.root / "failed"}

        def refusing(listing):
            def guarded(path=".", *args, **kwargs):
                assert Path(path) not in history, f"listed {path}"
                return listing(path, *args, **kwargs)

            return guarded

        monkeypatch.setattr(os, "listdir", refusing(os.listdir))
        monkeypatch.setattr(os, "scandir", refusing(os.scandir))
        monkeypatch.setattr(Path, "iterdir", refusing(Path.iterdir))
        assert queue.submit(specs[:3]) == [s.canonical_key for s in specs[:3]]
        assert queue.outcomes([done, failed, missing], set()) == {
            done: LOST,
            failed: "ValueError: boom",
        }
        assert queue.is_drained()
        assert queue.retry_failed(failed) == 1
        assert queue.retry_failed(missing) == 0
        assert queue.reopen(done) is True
        assert queue.reopen(missing) is False
        assert not queue.is_drained()
        monkeypatch.undo()
        counts = queue.counts()
        assert counts["pending"] == 2
        assert counts["done"] + counts["failed"] == len(specs) - 2

    def test_invalid_lease_rejected(self, tmp_path):
        for lease in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                WorkQueue(tmp_path / "q", lease_seconds=lease)


class TestWorker:
    def test_in_process_worker_drains_queue_into_store(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        store = ReportStore(tmp_path / "store")
        specs = [_spec(rows) for rows in (3, 4)]
        queue.submit(specs)
        stats = run_worker(queue, store, exit_when_empty=True, poll_seconds=0.01)
        assert stats == {"completed": 2, "solved": 2, "store_hits": 0, "failed": 0}
        assert queue.is_drained()
        for spec in specs:
            assert store.get(spec.canonical_key) is not None

    def test_worker_serves_warm_keys_from_store(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        store = ReportStore(tmp_path / "store")
        spec = _spec(3)
        store.put(api.solve(spec))
        queue.submit([spec])
        stats = run_worker(queue, store, exit_when_empty=True, poll_seconds=0.01)
        assert stats == {"completed": 1, "solved": 0, "store_hits": 1, "failed": 0}

    def test_failing_spec_is_dead_lettered_not_fatal(self, tmp_path):
        # One bad spec (unregistered solver) must not kill the worker or
        # leave the queue undrainable: it parks in failed/ with its
        # error recorded, and the good spec still completes.
        queue = WorkQueue(tmp_path / "q")
        store = ReportStore(tmp_path / "store")
        bad = ScenarioSpec(
            topology=TopologySpec("grid", {"rows": 3, "cols": 3, "capacity": 10.0}),
            workload=WorkloadSpec(sessions=(SessionSpec((0, 4), demand=1.0),)),
            solver="definitely_not_registered",
        )
        good = _spec(3)
        queue.submit([bad, good])
        stats = run_worker(queue, store, exit_when_empty=True, poll_seconds=0.01)
        assert stats["failed"] == 1
        assert stats["completed"] == 1
        assert queue.is_drained()
        assert queue.counts()["failed"] == 1
        failures = queue.failures()
        assert list(failures) == [bad.canonical_key]
        assert "definitely_not_registered" in failures[bad.canonical_key]
        assert store.get(good.canonical_key) is not None

    def test_retry_failed_requeues_dead_letters(self, tmp_path):
        # After fixing a transient cause, failed tasks must be
        # recoverable through the queue API (submit dedupes against
        # failed/, so nothing else would ever retry them).
        queue = WorkQueue(tmp_path / "q")
        spec = _spec(3)
        queue.submit([spec])
        task = queue.claim("worker-a")
        queue.fail(task, "disk full")
        assert queue.counts()["failed"] == 1
        assert queue.retry_failed() == 1
        assert queue.counts() == {
            "pending": 1,
            "claimed": 0,
            "done": 0,
            "failed": 0,
        }
        assert queue.failures() == {}  # error sidecar cleaned up
        assert queue.retry_failed(key="0" * 64) == 0
        store = ReportStore(tmp_path / "store")
        stats = run_worker(queue, store, exit_when_empty=True, poll_seconds=0.01)
        assert stats["completed"] == 1

    def test_gather_surfaces_worker_failure(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        store = ReportStore(tmp_path / "store")
        bad = ScenarioSpec(
            topology=TopologySpec("grid", {"rows": 3, "cols": 3, "capacity": 10.0}),
            workload=WorkloadSpec(sessions=(SessionSpec((0, 4), demand=1.0),)),
            solver="definitely_not_registered",
        )

        async def with_worker():
            gather = asyncio.create_task(
                solve_many_async([bad], queue, store, poll_seconds=0.01, timeout=60)
            )
            await asyncio.sleep(0.05)
            await asyncio.to_thread(
                run_worker, queue, store, exit_when_empty=True, poll_seconds=0.01
            )
            return await gather

        with pytest.raises(RuntimeError, match="failed in the worker pool"):
            asyncio.run(with_worker())


class TestTwoWorkerDrain:
    def test_two_worker_drain_bit_identical_to_serial(self, tmp_path):
        # The subsystem's acceptance criterion, end to end: six specs,
        # two subprocess workers competing for every task; the gathered
        # reports must match serial solve_many bit-for-bit.
        specs = [_spec(rows) for rows in (3, 4, 5, 6, 7, 8)]
        serial = api.solve_many(specs, jobs=1)

        queue_root = tmp_path / "q"
        store_root = tmp_path / "store"
        # Submit before spawning: batch-mode workers exit on a drained
        # queue, so an empty first look would race them out early.
        WorkQueue(queue_root).submit(specs)
        with spawn_local_workers(2, queue_root, store_root, poll_seconds=0.02):
            reports = asyncio.run(
                solve_many_async(
                    specs,
                    WorkQueue(queue_root),
                    store_root,
                    timeout=300,
                    submit=False,
                )
            )
        assert len(reports) == len(specs)
        assert [r.canonical_key for r in reports] == [
            s.canonical_key for s in specs
        ]
        assert [_flows(r.solution) for r in reports] == [
            _flows(r.solution) for r in serial
        ]
        assert [r.oracle_calls for r in reports] == [
            r.oracle_calls for r in serial
        ]
        assert [r.summary() for r in reports] == [r.summary() for r in serial]
        assert WorkQueue(queue_root).counts() == {
            "pending": 0,
            "claimed": 0,
            "done": len(specs),
            "failed": 0,
        }


class TestAsyncFrontEnd:
    def test_streaming_yields_every_input_position(self, tmp_path):
        # Duplicate keys queue once but every input index is yielded.
        queue = WorkQueue(tmp_path / "q")
        store = ReportStore(tmp_path / "store")
        spec = _spec(3)
        specs = [spec, _spec(4), spec]

        async def drive():
            stream = as_reports_completed(
                specs, queue, store, poll_seconds=0.01, timeout=120
            )
            seen = []
            worker_ran = False
            async for index, report in stream:
                seen.append((index, report.canonical_key))
                if not worker_ran:
                    worker_ran = True
            return seen

        async def with_worker():
            gather = asyncio.create_task(drive())
            await asyncio.sleep(0.05)  # let submission land
            await asyncio.to_thread(
                run_worker, queue, store, exit_when_empty=True, poll_seconds=0.01
            )
            return await gather

        seen = asyncio.run(with_worker())
        assert sorted(index for index, _ in seen) == [0, 1, 2]
        by_index = dict(seen)
        assert by_index[0] == by_index[2] == spec.canonical_key
        assert queue.counts()["done"] == 2  # deduplicated to two tasks

    def test_bad_poll_or_timeout_is_refused_before_submission(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        bad = [{"poll_seconds": v} for v in (0.0, math.nan, math.inf)]
        bad += [{"timeout": v} for v in (-1.0, math.nan, math.inf)]
        for kwargs in bad:
            gather = solve_many_async([_spec(3)], queue, tmp_path / "s", **kwargs)
            with pytest.raises(ConfigurationError):
                # Bounded: a NaN poll or deadline that got through would
                # wait forever.
                asyncio.run(asyncio.wait_for(gather, 10))
        assert queue.counts()["pending"] == 0

    def test_timeout_without_workers(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        store = ReportStore(tmp_path / "store")
        with pytest.raises(TimeoutError):
            asyncio.run(
                solve_many_async(
                    [_spec(3)], queue, store, poll_seconds=0.01, timeout=0.1
                )
            )

    def test_done_task_with_pruned_store_recovers_inline(self, tmp_path):
        # Regression: a done marker whose report vanished from the store
        # (pruned, or a fresh store attached to an old queue) must be
        # healed by the gatherer itself — workers may have exited — not
        # hang the gather forever.
        queue = WorkQueue(tmp_path / "q")
        store = ReportStore(tmp_path / "store")
        spec = _spec(3)
        queue.submit([spec])
        run_worker(queue, store, exit_when_empty=True, poll_seconds=0.01)
        assert queue.counts()["done"] == 1
        store.prune(max_entries=0)  # the report is gone, the marker stays
        store.clear_memory()
        # No worker attached: recovery must still complete the gather.
        reports = asyncio.run(
            solve_many_async([spec], queue, store, poll_seconds=0.01, timeout=60)
        )
        assert len(reports) == 1
        assert reports[0].canonical_key == spec.canonical_key
        store.clear_memory()
        assert store.get(spec.canonical_key) is not None  # healed on disk

    def test_prestored_reports_gather_without_queue_work(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        store = ReportStore(tmp_path / "store")
        spec = _spec(3)
        store.put(api.solve(spec))
        reports = asyncio.run(
            solve_many_async([spec], queue, store, poll_seconds=0.01, timeout=5)
        )
        assert len(reports) == 1
        assert reports[0].canonical_key == spec.canonical_key


class TestClusterCli:
    def test_drain_command_matches_serial_run(self, tmp_path):
        from repro.cluster.__main__ import main as cluster_main

        specs = [_spec(rows) for rows in (3, 4, 5)]
        spec_path = tmp_path / "batch.json"
        spec_path.write_text(json.dumps([s.to_jsonable() for s in specs]))
        out_path = tmp_path / "cluster.json"
        rc = cluster_main(
            [
                "drain",
                str(spec_path),
                "--queue",
                str(tmp_path / "q"),
                "--store",
                str(tmp_path / "store"),
                "--workers",
                "2",
                "--timeout",
                "300",
                "--output",
                str(out_path),
            ]
        )
        assert rc == 0
        cluster_reports = json.loads(out_path.read_text())
        serial = [r.to_jsonable() for r in api.solve_many(specs, jobs=1)]

        def strip(report):
            # Only the wall clock and the cache flag differ between runs;
            # instrumentation depends on the spec alone, so it is compared.
            return {k: v for k, v in report.items() if k not in ("wall_seconds", "cached")}

        assert [strip(r) for r in cluster_reports] == [strip(r) for r in serial]

    def test_worker_refuses_a_nan_lease_in_one_line(self, tmp_path):
        done = run_python(
            tmp_path,
            "-m", "repro.cluster", "worker", "--queue", "Q", "--store", "S",
            "--lease", "nan", "--exit-when-empty",
            returncode=1,
        )
        assert done.stderr.count("\n") == 1 and "must be" in done.stderr, done.stderr
        assert not (tmp_path / "Q").exists()

    def test_status_and_submit_commands(self, tmp_path, capsys):
        from repro.cluster.__main__ import main as cluster_main

        spec_path = tmp_path / "one.json"
        spec_path.write_text(json.dumps(_spec(3).to_jsonable()))
        assert (
            cluster_main(
                ["submit", str(spec_path), "--queue", str(tmp_path / "q")]
            )
            == 0
        )
        capsys.readouterr()
        assert cluster_main(["status", "--queue", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "pending  1" in out
