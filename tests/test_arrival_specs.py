"""ArrivalSpec: spec-representable online arrivals.

An online ``ScenarioSpec`` now fully determines its run — replication,
per-copy demand, and arrival order all live in the ``arrivals`` field —
so online scenarios cache, shard and re-run through the report store
exactly like offline ones.  These tests pin the contract: construction
validation, deterministic application, canonical-key sensitivity
(permuting the explicit order *changes* the key), cross-process
determinism of the solved report, and the acceptance criterion that a
warm-store re-run of the tree-limit online sweep performs zero solver
calls.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api as api
import repro.api.service as service
from repro.api import ArrivalSpec, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.experiments import runner
from repro.overlay.session import Session
from repro.routing.ip_routing import FixedIPRouting
from repro.store import ReportStore
from repro.util.errors import ConfigurationError
from tests.test_api_cli import run_python

SRC_ROOT = str(Path(__file__).resolve().parents[1] / "src")


def _online_spec(**arrival_kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        topology=TopologySpec(
            "paper_flat", {"num_nodes": 24, "capacity": 100.0}, seed=3
        ),
        workload=WorkloadSpec(sizes=(3, 3), demand=100.0, seed=4),
        routing="ip",
        solver="online",
        solver_params={"sigma": 10.0, "group_by_members": True},
        arrivals=ArrivalSpec(**arrival_kwargs),
    )


def _flows(solution):
    return [
        sorted((tf.tree.canonical_key(), tf.flow) for tf in s.tree_flows)
        for s in solution.sessions
    ]


class TestArrivalSpecValidation:
    def test_replication_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(replication=0)

    def test_seed_and_order_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(replication=2, seed=1, order=(1, 0, 2, 3))

    def test_order_rejects_duplicates_and_negatives(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(order=(0, 0))
        with pytest.raises(ConfigurationError):
            ArrivalSpec(order=(-1, 0))

    def test_demand_override_must_be_positive_finite(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(demand=0.0)
        with pytest.raises(ConfigurationError):
            ArrivalSpec(demand=float("inf"))

    def test_order_length_checked_at_apply_time(self):
        spec = ArrivalSpec(replication=2, order=(0, 1, 2))
        sessions = [Session((0, 1), name="a"), Session((2, 3), name="b")]
        with pytest.raises(ConfigurationError):
            spec.apply(sessions)


class TestArrivalSpecApplication:
    def test_replication_and_demand_override(self):
        sessions = [
            Session((0, 1), demand=100.0, name="a"),
            Session((2, 3), demand=100.0, name="b"),
        ]
        arrivals = ArrivalSpec(replication=3, demand=1.0).apply(sessions)
        assert len(arrivals) == 6
        assert all(s.demand == 1.0 for s in arrivals)
        # Session-major replica order when no seed/order is given.
        assert [s.name for s in arrivals] == [
            "a#0", "a#1", "a#2", "b#0", "b#1", "b#2",
        ]

    def test_seeded_permutation_is_deterministic(self):
        sessions = [Session((0, 1), name="a"), Session((2, 3), name="b")]
        first = ArrivalSpec(replication=4, seed=9).apply(sessions)
        second = ArrivalSpec(replication=4, seed=9).apply(sessions)
        assert [s.name for s in first] == [s.name for s in second]
        other = ArrivalSpec(replication=4, seed=10).apply(sessions)
        assert [s.name for s in other] != [s.name for s in first]

    def test_explicit_order_applied_verbatim(self):
        sessions = [Session((0, 1), name="a"), Session((2, 3), name="b")]
        arrivals = ArrivalSpec(replication=1, order=(1, 0)).apply(sessions)
        assert [s.name for s in arrivals] == ["b#0", "a#0"]


class TestArrivalCanonicalKeys:
    def test_round_trip_preserves_key(self):
        spec = _online_spec(replication=3, seed=11, demand=1.0)
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.canonical_key == spec.canonical_key

    def test_permuted_explicit_order_changes_key(self):
        base = _online_spec(replication=1, order=(0, 1))
        permuted = _online_spec(replication=1, order=(1, 0))
        assert base.canonical_key != permuted.canonical_key

    def test_arrival_free_specs_keep_their_keys(self):
        spec = ScenarioSpec(
            topology=TopologySpec("paper_flat", {"num_nodes": 24}, seed=3),
            workload=WorkloadSpec(sizes=(3,), demand=100.0, seed=4),
        )
        # The arrivals field must not appear in the JSON form of an
        # arrival-free spec, or every pre-existing canonical key (and
        # with it every persisted store entry) would shift.
        assert "arrivals" not in spec.to_jsonable()
        assert ScenarioSpec.from_jsonable(spec.to_jsonable()) == spec

    def test_arrivals_excluded_from_instance_key(self):
        a = _online_spec(replication=2, seed=5)
        b = _online_spec(replication=4, seed=6)
        assert a.instance_key == b.instance_key
        assert a.canonical_key != b.canonical_key


class TestArrivalDeterminism:
    def test_same_spec_same_report_across_processes(self, tmp_path):
        spec = _online_spec(replication=3, seed=11, demand=1.0)
        api.clear_caches()
        local = service.solve(spec)

        out_path = tmp_path / "report.json"
        program = (
            "import json, sys\n"
            "from repro.api import ScenarioSpec, solve\n"
            f"spec = ScenarioSpec.from_json({spec.to_json()!r})\n"
            "report = solve(spec)\n"
            f"json.dump(report.to_jsonable(), open({str(out_path)!r}, 'w'))\n"
        )
        subprocess.run(
            [sys.executable, "-c", program],
            check=True,
            env={"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"},
        )
        remote = json.loads(out_path.read_text())
        local_json = local.to_jsonable()
        # Wall-clock fields differ between runs; everything else must
        # match bit for bit.
        for doc in (local_json, remote):
            doc.pop("wall_seconds")
            doc.pop("instrumentation", None)
        assert local_json == remote

    def test_explicit_order_equals_equivalent_seeded_run(self):
        api.clear_caches()
        seeded = _online_spec(replication=2, seed=21)
        network = seeded.topology.build()
        ordered_names = [
            s.name for s in seeded.arrivals.apply(seeded.workload.build(network))
        ]
        base_names = [
            s.name
            for s in ArrivalSpec(replication=2).apply(seeded.workload.build(network))
        ]
        explicit = _online_spec(
            replication=2,
            order=tuple(base_names.index(name) for name in ordered_names),
        )
        assert explicit.canonical_key != seeded.canonical_key
        a = service.solve(seeded)
        b = service.solve(explicit)
        assert _flows(a.solution) == _flows(b.solution)


class TestWarmStoreOnlineSweep:
    def test_online_sweep_rerun_is_zero_solver_calls(self, tmp_path, monkeypatch):
        # Acceptance criterion: the tree-limit online sweep re-runs out
        # of the store without any solver dispatch, exactly like the
        # offline sweeps.
        store = ReportStore(tmp_path / "store")
        runner.clear_caches()
        api.clear_caches()
        cold = runner.online_sweep_runs("tiny", tree_limit=2, store=store)

        runner.clear_caches()
        api.clear_caches()
        store.clear_memory()
        calls = []
        original = service._solve_uncached
        monkeypatch.setattr(
            service,
            "_solve_uncached",
            lambda *a, **k: calls.append(a) or original(*a, **k),
        )
        warm = runner.online_sweep_runs("tiny", tree_limit=2, store=store)
        assert calls == []  # zero solver calls
        assert set(warm) == set(cold)
        for grid_point in cold:
            assert _flows(warm[grid_point]) == _flows(cold[grid_point])

    def test_online_sweep_rerun_in_a_fresh_process_is_zero_solver_calls(
        self, tmp_path
    ):
        # The same criterion across processes: one child persists the
        # cold sweep, and a second serves every cell from the store.
        program = (
            "from repro.experiments.runner import online_sweep_runs\n"
            "from repro.obs.metrics import registry\n"
            "runs = online_sweep_runs("
            f"'tiny', tree_limit=2, store={str(tmp_path / 'store')!r})\n"
            "solves = [registry().counter('repro_solve_total', "
            "labels={'outcome': o}).value for o in ('cold', 'store')]\n"
            "print(len(runs), *(int(n) for n in solves))\n"
        )
        cells, _, _ = run_python(tmp_path, "-c", program).stdout.split()
        assert int(cells) > 0
        warm = run_python(tmp_path, "-c", program).stdout.split()
        assert warm == [cells, "0", cells]  # every cell from the store, no solve

    def test_store_path_matches_procedural_path(self, tmp_path):
        # Reference: each cell re-solved by hand from its spec's parts,
        # outside the service's instance cache and report store.
        store = ReportStore(tmp_path / "store")
        runner.clear_caches()
        stored = runner.online_sweep_runs("tiny", tree_limit=2, store=store)
        assert list(stored)
        for count, size in stored:
            spec = runner.online_scenario_spec("tiny", 2, count, size)
            net = spec.topology.build()
            reference = api.solve_instance(
                "online",
                spec.arrivals.apply(spec.workload.build(net)),
                FixedIPRouting(net),
                spec.solver_params,
            )
            solution = stored[(count, size)]
            assert _flows(solution) == _flows(reference)
            assert solution.oracle_calls == reference.oracle_calls

    def test_limited_tree_online_cells_come_from_store_on_rerun(
        self, tmp_path, monkeypatch
    ):
        store = ReportStore(tmp_path / "store")
        runner.clear_caches()
        api.clear_caches()
        cold = runner.limited_tree_study("tiny", "ip", store=store)

        runner.clear_caches()
        api.clear_caches()
        store.clear_memory()
        solved = []
        original = service.solve_instance

        def counting_solve_instance(solver, *args, **kwargs):
            solved.append(solver)
            return original(solver, *args, **kwargs)

        monkeypatch.setattr(service, "solve_instance", counting_solve_instance)
        warm = runner.limited_tree_study("tiny", "ip", store=store)
        # The fractional reference and every online ordering come off
        # the store; nothing dispatches to the online solver again.
        assert "online" not in solved
        assert "max_concurrent_flow" not in solved
        for cold_point, warm_point in zip(cold.points, warm.points):
            assert warm_point.online_throughput == cold_point.online_throughput
            assert warm_point.random_throughput == cold_point.random_throughput
