"""Durability and wiring tests for the persistent report store.

The store's contract: a ``put`` report comes back bit-identical — in a
*different process*, with the full ``FlowSolution`` reconstructed — a
corrupted entry is detected and falls back to a re-solve, concurrent
writers of one key never produce a torn read, and a batch whose keys are
all warm performs **zero** solver calls (the acceptance criterion,
asserted by counting live solver dispatches).
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import api
from repro.api import ScenarioSpec, SessionSpec, TopologySpec, WorkloadSpec
from repro.api import service
from repro.store import STORE_ENV_VAR, ReportStore
from repro.store.report_store import MEMORY_ENTRIES
from repro.util.errors import ConfigurationError

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _spec(rows: int = 3) -> ScenarioSpec:
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


class TestRoundTrip:
    def test_put_get_round_trip_in_process(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        report = api.solve(_spec())
        store.put(report)
        store.clear_memory()  # force the disk path
        restored = store.get(report.canonical_key)
        assert restored is not None
        assert _flows(restored.solution) == _flows(report.solution)
        assert restored.summary() == report.summary()
        assert restored.oracle_calls == report.oracle_calls
        assert restored.spec == report.spec

    def test_get_survives_new_process_bit_identical(self, tmp_path):
        # The actual durability claim: a *fresh interpreter* rebuilds the
        # report — live FlowSolution included — purely from disk.
        store = ReportStore(tmp_path / "store")
        report = api.solve(_spec())
        store.put(report)
        script = (
            "import json, sys\n"
            "from repro.store import ReportStore\n"
            f"store = ReportStore({str(tmp_path / 'store')!r})\n"
            f"report = store.get({report.canonical_key!r})\n"
            "assert report is not None, 'store miss in child process'\n"
            "json.dump(report.to_jsonable(), sys.stdout, sort_keys=True)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"},
            check=True,
        ).stdout
        child_payload = json.loads(out)
        parent_payload = report.to_jsonable()
        parent_payload["cached"] = False  # the store normalises the flag
        assert child_payload == parent_payload

    def test_gzip_and_plain_entries_interoperate(self, tmp_path):
        plain = ReportStore(tmp_path / "store", compress=False)
        report = api.solve(_spec())
        plain.put(report)
        gz = ReportStore(tmp_path / "store", compress=True)
        restored = gz.get(report.canonical_key)
        assert restored is not None
        assert _flows(restored.solution) == _flows(report.solution)
        # And the reverse direction: gzip write, plain-configured read.
        other = api.solve(_spec(rows=4))
        gz.put(other)
        plain.clear_memory()
        assert plain.get(other.canonical_key) is not None


class TestCorruption:
    def test_corrupt_entry_detected_and_quarantined(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        report = api.solve(_spec())
        path = store.put(report)
        store.clear_memory()
        path.write_bytes(b"not json at all")
        assert store.get(report.canonical_key) is None
        assert store.corrupt == 1
        assert not path.exists()  # quarantined, ready to be re-put

    def test_bit_flip_fails_digest_check(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        report = api.solve(_spec())
        path = store.put(report)
        store.clear_memory()
        raw = bytearray(path.read_bytes())
        # Flip one digit in the report body (well past the envelope's
        # own sha256 field) so the JSON still parses but the content no
        # longer matches the recorded digest.
        digits = [
            i
            for i in range(len(raw) * 2 // 3, len(raw))
            if ord("0") <= raw[i] <= ord("9")
        ]
        assert digits, "report body contains no digits to corrupt"
        flip_at = digits[0]
        raw[flip_at] = ord("8") if raw[flip_at] != ord("8") else ord("9")
        json.loads(bytes(raw).decode("utf-8"))  # still valid JSON
        path.write_bytes(bytes(raw))
        assert store.get(report.canonical_key) is None
        assert store.corrupt == 1

    def test_foreign_report_schema_degrades_to_miss(self, tmp_path):
        # A valid envelope holding a future/foreign report schema must be
        # a miss (quarantined), not an exception: from_jsonable raises
        # the repo's own ConfigurationError, which get() must swallow.
        store = ReportStore(tmp_path / "store")
        report = api.solve(_spec())
        path = store.put(report)
        store.clear_memory()
        import hashlib

        payload = report.to_jsonable()
        payload["cached"] = False
        payload["schema"] = "SolveReport/v2"
        body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        envelope = {
            "schema": "ReportStoreEntry/v1",
            "key": report.canonical_key,
            "sha256": hashlib.sha256(body).hexdigest(),
            "report": payload,
        }
        path.write_bytes(
            json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()
        )
        assert store.get(report.canonical_key) is None
        assert store.corrupt == 1
        assert not path.exists()

    def test_report_from_another_engine_version_is_re_solved(self, tmp_path):
        # A store filled by an older engine holds reports whose
        # instrumentation a cold solve no longer gives: such an entry,
        # digest intact, is a miss, and solve() replaces it.
        import hashlib

        from repro.core.engine.instrumentation import ENGINE_SCHEMA

        store = ReportStore(tmp_path / "store")
        spec = _spec()
        report = api.solve(spec, store=store)
        assert report.solution.instrumentation["engine"] == ENGINE_SCHEMA
        path = store._find_object(spec.canonical_key)
        envelope = json.loads(path.read_bytes())
        envelope["report"]["instrumentation"]["engine"] = "PhaseEngine/v4"
        body = json.dumps(
            envelope["report"], sort_keys=True, separators=(",", ":")
        ).encode()
        envelope["sha256"] = hashlib.sha256(body).hexdigest()
        path.write_bytes(
            json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()
        )
        store.clear_memory()
        assert store.get(spec.canonical_key) is None
        assert not path.exists()
        # Version skew is not damage: the read counts as stale.
        assert store.corrupt == 0
        assert store.stale == 1
        assert store.stats()["stale"] == 1
        api.clear_caches()
        again = api.solve(spec, store=store)
        assert again.cached is False
        assert again.solution.instrumentation["engine"] == ENGINE_SCHEMA
        store.clear_memory()
        assert store.get(spec.canonical_key).solution.instrumentation == (
            again.solution.instrumentation
        )

    def test_service_re_solves_after_corruption(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        spec = _spec()
        first = api.solve(spec, store=store)
        path = store._find_object(spec.canonical_key)
        path.write_bytes(b"garbage")
        store.clear_memory()
        api.clear_caches()
        again = api.solve(spec, store=store)
        assert again.cached is False  # fell back to a live solve
        assert _flows(again.solution) == _flows(first.solution)
        # ... and the fresh solve healed the entry.
        store.clear_memory()
        assert store.get(spec.canonical_key) is not None


class TestConcurrentWriters:
    def test_same_key_writers_never_tear(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        report = api.solve(_spec())
        store.put(report)
        writer = (
            "from repro.store import ReportStore\n"
            "from repro.api.service import SolveReport\n"
            "import json\n"
            f"store = ReportStore({str(tmp_path / 'store')!r})\n"
            f"payload = json.loads({json.dumps(json.dumps(report.to_jsonable()))})\n"
            "report = SolveReport.from_jsonable(payload)\n"
            "for _ in range(40):\n"
            "    store.put(report)\n"
        )
        env = {"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"}
        writers = [
            subprocess.Popen([sys.executable, "-c", writer], env=env)
            for _ in range(2)
        ]
        # Read continuously while both writers hammer the same key: a
        # torn write would surface as a digest/JSON failure (corrupt).
        reader = ReportStore(tmp_path / "store")
        seen = 0
        while any(w.poll() is None for w in writers):
            reader.clear_memory()  # every read goes to disk
            got = reader.get(report.canonical_key)
            assert got is not None, "reader saw a torn or missing entry"
            seen += 1
        for w in writers:
            assert w.wait() == 0
        assert reader.corrupt == 0
        assert seen > 0
        final = reader.get(report.canonical_key)
        assert _flows(final.solution) == _flows(report.solution)


class TestServiceWiring:
    def test_warm_store_batch_performs_zero_solver_calls(self, tmp_path, monkeypatch):
        # Acceptance criterion: with every key warm in the store, the
        # batch engine dispatches no solver work at all — counted at the
        # single choke point every live solve goes through.
        store = ReportStore(tmp_path / "store")
        specs = [_spec(rows) for rows in (3, 4, 5)]
        warm = api.solve_many(specs, jobs=1, store=store)
        assert all(not r.cached for r in warm)

        api.clear_caches()
        store.clear_memory()
        calls = []
        original = service._solve_uncached
        monkeypatch.setattr(
            service,
            "_solve_uncached",
            lambda *a, **k: calls.append(a) or original(*a, **k),
        )
        reports = api.solve_many(specs + specs, jobs=1, store=store)
        assert calls == []  # zero solver calls
        assert api.cache_info()["misses"] == 0
        assert api.cache_info()["store_hits"] == len(specs)
        assert all(r.cached for r in reports)
        assert [_flows(r.solution) for r in reports[: len(specs)]] == [
            _flows(r.solution) for r in warm
        ]
        # Oracle-call accounting survives the store round trip exactly.
        assert [r.oracle_calls for r in reports[: len(specs)]] == [
            r.oracle_calls for r in warm
        ]

    def test_env_var_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "envstore"))
        spec = _spec()
        first = api.solve(spec)
        assert first.cached is False
        api.clear_caches()
        second = api.solve(spec)
        assert second.cached is True
        assert _flows(second.solution) == _flows(first.solution)

    def test_env_resolved_store_is_memoized(self, tmp_path, monkeypatch):
        # The env store must be one long-lived instance, or its LRU
        # front and counters reset on every resolve.
        from repro.store import resolve_store

        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "envstore"))
        assert resolve_store(None) is resolve_store(None)

    def test_store_entries_are_world_readable(self, tmp_path):
        # Atomic writes must not leak mkstemp's 0600 mode: cooperating
        # workers may run as different users on a shared filesystem.
        import os

        store = ReportStore(tmp_path / "store")
        path = store.put(api.solve(_spec()))
        umask = os.umask(0)
        os.umask(umask)
        assert (path.stat().st_mode & 0o777) == (0o666 & ~umask)

    def test_use_cache_false_bypasses_store(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        spec = _spec()
        api.solve_many([spec], jobs=1, store=store)
        reports = api.solve_many([spec], jobs=1, store=store, use_cache=False)
        assert reports[0].cached is False

    def test_cache_served_reports_backfill_the_store(self, tmp_path):
        # Regression: a store attached after the in-process cache is
        # already warm must still be populated, or a later fresh process
        # would find it empty.
        spec = _spec()
        api.solve_many([spec], jobs=1)  # warm the cache, no store
        store = ReportStore(tmp_path / "store")
        reports = api.solve_many([spec], jobs=1, store=store)
        assert reports[0].cached is True  # served from memory...
        store.clear_memory()
        assert store.get(spec.canonical_key) is not None  # ...and spilled

    def test_backfill_survives_report_cache_eviction(self, tmp_path, monkeypatch):
        # Regression: the backfill must not read a key the LRU eviction
        # pass just dropped from the in-process cache (KeyError).
        monkeypatch.setattr(service, "_REPORT_CACHE_LIMIT", 2)
        warm_spec, fresh_a, fresh_b = _spec(3), _spec(4), _spec(5)
        api.solve_many([warm_spec], jobs=1)  # cache-warm, store-absent
        store = ReportStore(tmp_path / "store")
        reports = api.solve_many([warm_spec, fresh_a, fresh_b], jobs=1, store=store)
        assert [r.cached for r in reports] == [True, False, False]
        store.clear_memory()
        for spec in (warm_spec, fresh_a, fresh_b):
            assert store.get(spec.canonical_key) is not None

    def test_store_survives_parallel_batch(self, tmp_path):
        # Pool workers skip the store; the parent writes back once.
        store = ReportStore(tmp_path / "store")
        specs = [_spec(rows) for rows in (3, 4)]
        api.solve_many(specs, jobs=2, store=store)
        store.clear_memory()
        assert all(store.get(s.canonical_key) is not None for s in specs)


class TestDurabilityCost:
    def test_durable_solve_and_persist_overhead_under_ten_percent(self, tmp_path):
        # The unit a cluster worker runs: a cold solve persisted into a
        # gzip store.  Runs come in interleaved durable/volatile pairs;
        # noise only inflates a pair's delta, so the smallest delta
        # bounds what the fsyncs cost.
        spec = ScenarioSpec(
            topology=TopologySpec(
                "paper_flat", {"num_nodes": 24, "capacity": 100.0}, seed=2004
            ),
            workload=WorkloadSpec(sizes=(4, 3), demand=100.0, seed=2005),
            solver="max_flow",
            solver_params={"approximation_ratio": 0.8},
        )
        api.solve_many([spec], jobs=1)  # warm-up

        def cold_solve_and_persist(root, durable):
            store = ReportStore(root, compress=True, durable=durable)
            api.clear_caches()
            start = time.perf_counter()
            api.solve_many([spec], jobs=1, store=store)
            return time.perf_counter() - start

        overheads = []
        for rep in range(4):
            durable = cold_solve_and_persist(tmp_path / f"durable{rep}", True)
            volatile = cold_solve_and_persist(tmp_path / f"volatile{rep}", False)
            overheads.append((durable - volatile) / volatile)
        assert min(overheads) < 0.10, overheads


class TestMaintenance:
    def test_stats_and_prune(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        reports = [api.solve(_spec(rows)) for rows in (3, 4, 5)]
        for report in reports:
            store.put(report)
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        removed = store.prune(max_entries=1)
        assert removed == 2
        stats = store.stats()
        assert stats["entries"] == 1

    def test_prune_by_age_keeps_fresh_entries(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        store.put(api.solve(_spec()))
        assert store.prune(max_age_seconds=3600.0) == 0
        assert store.stats()["entries"] == 1

    def test_prune_rejects_negative_and_non_finite_ages(self, tmp_path):
        # A negative age put the cutoff in the future and pruned every
        # entry; NaN pruned none, silently.
        store = ReportStore(tmp_path / "store")
        store.put(api.solve(_spec()))
        for age in (-86400.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="max_age_seconds"):
                store.prune(max_age_seconds=age)
        assert store.stats()["entries"] == 1

    def test_memory_front_is_lru(self, tmp_path):
        store = ReportStore(tmp_path / "store")
        reports = [api.solve(_spec(rows)) for rows in (3, 4, 5)]
        for report in reports[:2]:
            store.put(report)
        store.get(reports[0].canonical_key)  # refresh oldest
        # Fill the front to capacity behind the two reports.
        for index in range(MEMORY_ENTRIES - 2):
            store._remember(f"filler-{index}", None)
        store.put(reports[2])  # evicts reports[1], not reports[0]
        assert len(store._memory) == MEMORY_ENTRIES
        assert reports[0].canonical_key in store._memory
        assert reports[1].canonical_key not in store._memory
        assert reports[2].canonical_key in store._memory
        # Disk is unaffected by memory eviction.
        assert store.get(reports[1].canonical_key) is not None

    def test_invalid_configuration_rejected(self, tmp_path):
        store = ReportStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.prune(max_entries=-2)
