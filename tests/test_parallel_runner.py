"""Parallel experiment-runner equivalence and ``--jobs`` resolution.

Every sweep cell is deterministically seeded from its setting, so a run
on ``solve_many``'s process pool must produce exactly the results of a
serial run: the same trees, flows and oracle calls in every cell.
``runner.clear_caches()`` also empties the API's report cache, so the
parallel arm really reaches the pool.
"""

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.experiments import runner
from repro.experiments.settings import (
    JOBS_ENV_VAR,
    configure_jobs,
    default_jobs,
    resolve_jobs,
    tiny_flat_setting,
)
from repro.util.errors import ConfigurationError

SCALE = "tiny"


@pytest.fixture(autouse=True)
def fresh_caches():
    runner.clear_caches()
    yield
    runner.clear_caches()


class TestJobsResolution:
    def test_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert default_jobs() == 1
        assert resolve_jobs() == 1
        assert resolve_jobs(3) == 3

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "4")
        assert resolve_jobs() == 4
        monkeypatch.setenv(JOBS_ENV_VAR, "bogus")
        with pytest.raises(ConfigurationError):
            resolve_jobs()

    def test_configure_jobs_roundtrip(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        previous = configure_jobs(2)
        try:
            assert resolve_jobs() == 2
        finally:
            configure_jobs(previous)
        assert resolve_jobs() == 1

    def test_configured_jobs_beat_env(self, monkeypatch):
        # Regression: an explicit --jobs (configure_jobs) must win over
        # an ambient REPRO_JOBS from the environment.
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        previous = configure_jobs(8)
        try:
            assert resolve_jobs() == 8
        finally:
            configure_jobs(previous)
        assert resolve_jobs() == 1


def _flows(solution):
    """Per-session tree keys and exact flows, plus the oracle calls."""
    return solution.oracle_calls, [
        sorted((tf.tree.canonical_key(), tf.flow) for tf in s.tree_flows)
        for s in solution.sessions
    ]


def _cells(runs):
    return {key: _flows(solution) for key, solution in runs.items()}


@pytest.fixture
def pool_cells(monkeypatch):
    """Count the specs ``solve_many`` hands to its process pool."""
    from repro.api import service

    shipped = []
    pool = service.ProcessPoolExecutor

    class CountingPool(pool):
        def map(self, fn, payloads):
            payloads = list(payloads)
            shipped.extend(payloads)
            return super().map(fn, payloads)

    monkeypatch.setattr(service, "ProcessPoolExecutor", CountingPool)
    return shipped


class TestParallelEquivalence:
    def test_sweep_runs_match_serial(self, pool_cells):
        serial = _cells(runner.sweep_runs(SCALE, "maxflow"))
        runner.clear_caches()
        parallel = _cells(runner.sweep_runs(SCALE, "maxflow", jobs=2))
        assert parallel == serial
        assert len(pool_cells) == len(serial)

    def test_online_sweep_runs_match_serial(self, pool_cells):
        serial = _cells(runner.online_sweep_runs(SCALE, tree_limit=2))
        runner.clear_caches()
        parallel = _cells(runner.online_sweep_runs(SCALE, tree_limit=2, jobs=2))
        assert parallel == serial
        assert len(pool_cells) == len(serial)

    def test_limited_tree_study_matches_serial(self, pool_cells):
        serial = runner.limited_tree_study(SCALE)
        runner.clear_caches()
        parallel = runner.limited_tree_study(SCALE, jobs=2)
        assert [p.__dict__ for p in parallel.points] == [
            p.__dict__ for p in serial.points
        ]
        assert _flows(parallel.fractional) == _flows(serial.fractional)
        setting = serial.setting
        online_cells = (
            len(setting.tree_limits) * len(setting.sigmas) * setting.online_orderings
        )
        assert len(pool_cells) == 1 + online_cells  # the fractional one too

    def test_flat_ratio_sweep_accepts_jobs(self, pool_cells, monkeypatch):
        # The tiny grid has one ratio, which solve_many solves serially;
        # a second ratio sends the sweep through the pool.
        setting = dataclasses.replace(tiny_flat_setting(), ratios=(0.75, 0.80))
        monkeypatch.setattr(runner, "flat_setting_for_scale", lambda scale: setting)
        for routing, algorithm in (("ip", "maxflow"), ("dynamic", "maxconcurrent")):
            runner.clear_caches()
            serial = _cells(runner.flat_ratio_sweep(SCALE, routing, algorithm))
            runner.clear_caches()
            parallel = _cells(
                runner.flat_ratio_sweep(SCALE, routing, algorithm, jobs=2)
            )
            assert list(parallel) == [0.75, 0.80]
            assert parallel == serial
        assert len(pool_cells) == 4


def test_solve_many_owns_the_only_process_pool():
    src = Path(repro.__file__).parent
    pools = sorted(
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if "ProcessPoolExecutor" in path.read_text()
    )
    assert pools == ["api/service.py"]
    pooled_imports = re.compile(
        r"^\s*(import|from)\s+(multiprocessing|concurrent\.futures)", re.M
    )
    assert not [
        path for path in (src / "core").rglob("*.py")
        if pooled_imports.search(path.read_text())
    ]
