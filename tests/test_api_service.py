"""Solve-service tests: spec → JSON → spec → solve equals the direct calls.

The acceptance contract of the Scenario API: for every solver × routing
combination, solving a JSON-round-tripped spec reproduces the
``FlowSolution`` of the algorithm functions called by hand bit-identically;
the batch engine's parallel runs equal its serial runs; a batch solves
each canonical key once; every registered solver gives one report per
spec; and the ``python -m repro.api`` CLI emits the same reports either
way.
"""

import json

import pytest

from repro import api
from repro.api import ScenarioSpec, SessionSpec, SolveReport, TopologySpec, WorkloadSpec
from repro.api.__main__ import main as api_main
from repro.api.registry import default_registry
from repro.core.maxconcurrent import max_concurrent_flow
from repro.core.maxflow import max_flow
from repro.core.online import online_min_congestion
from repro.core.rounding import RandomMinCongestion
from repro.obs import metrics as obs_metrics
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.util.errors import ConfigurationError
from repro.util.serialization import canonical_json

TOPOLOGY = TopologySpec("paper_flat", {"num_nodes": 30, "capacity": 100.0}, seed=13)
WORKLOAD = WorkloadSpec(sizes=(4, 3), demand=100.0, seed=5)

SOLVER_PARAMS = {
    "max_flow": {"approximation_ratio": 0.8},
    "max_concurrent_flow": {"approximation_ratio": 0.8, "prescale_epsilon": 0.2},
    "online": {"sigma": 10.0},
    "randomized_rounding": {
        "approximation_ratio": 0.8,
        "prescale_epsilon": 0.2,
        "max_trees": 2,
        "seed": 42,
    },
}


def _cold_solves() -> float:
    return obs_metrics.registry().counter(
        "repro_solve_total", labels={"outcome": "cold"}
    ).value


@pytest.fixture(autouse=True)
def fresh_caches():
    api.clear_caches()
    yield
    api.clear_caches()


def _spec(solver: str, routing: str) -> ScenarioSpec:
    return ScenarioSpec(
        topology=TOPOLOGY,
        workload=WORKLOAD,
        routing=routing,
        solver=solver,
        solver_params=SOLVER_PARAMS[solver],
    )


def _facade_solution(solver: str, routing_kind: str):
    """The hand-wired algorithm calls the API must reproduce bit-for-bit."""
    network = TOPOLOGY.build()
    sessions = WORKLOAD.build(network)
    routing_cls = FixedIPRouting if routing_kind == "ip" else DynamicRouting
    routing = routing_cls(network)
    if solver == "max_flow":
        return max_flow(sessions, routing, approximation_ratio=0.8)
    if solver == "online":
        return online_min_congestion(sessions, routing, sigma=10.0)
    fractional = max_concurrent_flow(
        sessions, routing, approximation_ratio=0.8, prescale_epsilon=0.2
    )
    if solver == "max_concurrent_flow":
        return fractional
    return RandomMinCongestion(fractional, seed=42).select_trees(2).solution


def _flows(solution):
    """Exact per-tree decomposition (tree identity + float-exact flow)."""
    return [
        (
            s.session.name,
            sorted((tf.tree.canonical_key(), tf.flow) for tf in s.tree_flows),
        )
        for s in solution.sessions
    ]


@pytest.mark.parametrize("routing_kind", ["ip", "dynamic"])
@pytest.mark.parametrize(
    "solver", ["max_flow", "max_concurrent_flow", "online", "randomized_rounding"]
)
def test_round_tripped_spec_reproduces_facade(solver, routing_kind):
    spec = _spec(solver, routing_kind)
    report = api.solve(ScenarioSpec.from_json(spec.to_json()))
    facade = _facade_solution(solver, routing_kind)
    assert report.solution.summary() == facade.summary()
    assert _flows(report.solution) == _flows(facade)
    assert report.oracle_calls == facade.oracle_calls


class TestSolveMany:
    def test_parallel_equals_serial(self):
        specs = [
            _spec("max_flow", "ip"),
            _spec("online", "ip"),
            _spec("max_flow", "dynamic"),
        ]
        serial = api.solve_many(specs, jobs=1)
        api.clear_caches()
        parallel = api.solve_many(specs, jobs=2)
        assert [r.summary() for r in serial] == [r.summary() for r in parallel]
        assert [_flows(r.solution) for r in serial] == [
            _flows(r.solution) for r in parallel
        ]

    def test_duplicate_specs_solved_once(self):
        spec = _spec("max_flow", "ip")
        before = _cold_solves()
        reports = api.solve_many([spec, spec, spec], jobs=1)
        assert [r.cached for r in reports] == [False, True, True]
        assert len({id(r.solution) for r in reports}) == 1
        assert _cold_solves() - before == 1

    def test_empty_batch(self):
        assert api.solve_many([], jobs=4) == []


class TestOneReportPerSpec:
    """A canonical key names one report, which a store or a batch serves."""

    ALIASES = {"maxflow": "max_flow", "maxconcurrent": "max_concurrent_flow"}

    def test_seedless_rounding_spec_is_refused(self):
        params = dict(SOLVER_PARAMS["randomized_rounding"])
        del params["seed"]
        spec = ScenarioSpec(
            topology=TOPOLOGY,
            workload=WORKLOAD,
            solver="randomized_rounding",
            solver_params=params,
        )
        with pytest.raises(TypeError, match="seed"):
            api.solve(spec)
        with pytest.raises(ConfigurationError, match="seed"):
            api.solve(spec.with_solver("randomized_rounding", **params, seed=None))

    def test_each_registered_solver_gives_one_report_json(self):
        def cold_report_json(spec):
            api.clear_caches()
            payload = api.solve(spec).to_jsonable()
            del payload["wall_seconds"], payload["cached"]
            return canonical_json(payload)

        for solver in default_registry().solver_names():
            spec = ScenarioSpec(
                topology=TOPOLOGY,
                workload=WORKLOAD,
                solver=solver,
                solver_params=SOLVER_PARAMS[self.ALIASES.get(solver, solver)],
            )
            assert cold_report_json(spec) == cold_report_json(spec), solver


class TestSolveReportSerialization:
    def test_report_round_trip_rebuilds_solution(self):
        report = api.solve(_spec("max_flow", "ip"))
        payload = json.loads(json.dumps(report.to_jsonable()))
        restored = SolveReport.from_jsonable(payload)
        assert restored.summary() == report.summary()
        assert _flows(restored.solution) == _flows(report.solution)
        assert restored.spec == report.spec
        assert restored.oracle_calls == report.oracle_calls

    def test_report_schema_checked(self):
        report = api.solve(_spec("max_flow", "ip"))
        payload = report.to_jsonable()
        payload["schema"] = "Banana/v9"
        with pytest.raises(ConfigurationError):
            SolveReport.from_jsonable(payload)

    def test_explicit_workload_solves(self):
        spec = ScenarioSpec(
            topology=TopologySpec("grid", {"rows": 3, "cols": 3, "capacity": 10.0}),
            workload=WorkloadSpec(
                sessions=(SessionSpec((0, 4, 8), demand=5.0, name="diag"),)
            ),
            solver="max_flow",
            solver_params={"approximation_ratio": 0.8},
        )
        report = api.solve(spec)
        assert report.solution.sessions[0].session.name == "diag"
        assert report.solution.overall_throughput > 0


class TestRetiredSolverParams:
    RETIRED = {
        "memoize": False,
        "stacked_trees": False,
        "kernel_backend": "numba",
        "prescale_jobs": 2,
        "max_events": 4,
    }

    @pytest.mark.parametrize("solver", sorted(SOLVER_PARAMS))
    def test_retired_keys_solve_with_one_warning(self, solver):
        from repro.api.service import RETIRED_SOLVER_PARAMS

        assert set(self.RETIRED) == set(RETIRED_SOLVER_PARAMS)
        plain = _spec(solver, "ip")
        stored = ScenarioSpec.from_json(
            ScenarioSpec(
                topology=TOPOLOGY,
                workload=WORKLOAD,
                solver=solver,
                solver_params={**SOLVER_PARAMS[solver], **self.RETIRED},
            ).to_json()
        )
        assert stored.canonical_key != plain.canonical_key
        with pytest.warns(DeprecationWarning) as caught:
            report = api.solve(stored)
        assert len(caught) == 1
        for key in self.RETIRED:
            assert key in str(caught[0].message)
        assert report.canonical_key == stored.canonical_key
        assert _flows(report.solution) == _flows(api.solve(plain).solution)
        assert report.oracle_calls == api.solve(plain).oracle_calls

    def test_unknown_key_still_raises(self):
        spec = ScenarioSpec(
            topology=TOPOLOGY,
            workload=WORKLOAD,
            solver="max_flow",
            solver_params={"approximation_ratio": 0.8, "batch_size": 3},
        )
        with pytest.raises(TypeError):
            api.solve(spec)


class TestInstanceSharing:
    def test_instance_cache_shared_across_solvers(self):
        first = api.build_instance(_spec("max_flow", "ip"))
        second = api.build_instance(_spec("online", "ip"))
        assert all(a is b for a, b in zip(first, second))  # same instance reused

    def test_instance_cache_is_lru_not_fifo(self, monkeypatch):
        # Regression: a hit must refresh recency, so eviction follows
        # least-recent-*use* order, not insertion order.
        from repro.api import service

        def tiny_spec(rows):
            return ScenarioSpec(
                topology=TopologySpec("grid", {"rows": rows, "cols": 2, "capacity": 10.0}),
                workload=WorkloadSpec(sessions=(SessionSpec((0, 1), demand=1.0),)),
                solver="max_flow",
                solver_params={"approximation_ratio": 0.8},
            )

        monkeypatch.setattr(service, "_INSTANCE_CACHE_LIMIT", 2)
        spec_a, spec_b, spec_c = tiny_spec(2), tiny_spec(3), tiny_spec(4)
        instance_a = service.build_instance(spec_a)
        service.build_instance(spec_b)
        # Touch A: with correct LRU bookkeeping this makes B the
        # eviction candidate even though A was inserted first.
        hit_a = service.build_instance(spec_a)
        assert hit_a is instance_a  # a genuine cache hit, not a rebuild
        service.build_instance(spec_c)
        assert spec_a.instance_key in service._instance_cache
        assert spec_b.instance_key not in service._instance_cache  # evicted
        assert spec_c.instance_key in service._instance_cache
        # And the surviving hit still returns the original objects.
        assert service.build_instance(spec_a) is instance_a

    def test_instance_cache_eviction_keeps_limit(self, monkeypatch):
        from repro.api import service

        monkeypatch.setattr(service, "_INSTANCE_CACHE_LIMIT", 2)
        for rows in (2, 3, 4, 5):
            service.build_instance(
                ScenarioSpec(
                    topology=TopologySpec(
                        "grid", {"rows": rows, "cols": 2, "capacity": 10.0}
                    ),
                    workload=WorkloadSpec(sessions=(SessionSpec((0, 1), demand=1.0),)),
                    solver="max_flow",
                )
            )
        assert len(service._instance_cache) == 2


class TestCli:
    def _write_spec_file(self, tmp_path, payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_run_single_spec_file(self, tmp_path, capsys):
        spec_path = self._write_spec_file(
            tmp_path, _spec("max_flow", "ip").to_jsonable()
        )
        out_path = tmp_path / "reports.json"
        assert api_main(["run", str(spec_path), "--output", str(out_path)]) == 0
        reports = json.loads(out_path.read_text())
        assert len(reports) == 1
        assert reports[0]["schema"] == api.REPORT_SCHEMA
        assert reports[0]["summary"]["overall_throughput"] > 0

    def test_run_verbose_prints_counts_only(self, tmp_path, capsys):
        spec_path = self._write_spec_file(
            tmp_path, _spec("max_flow", "ip").to_jsonable()
        )
        out_path = tmp_path / "reports.json"
        argv = ["run", str(spec_path), "--output", str(out_path), "--verbose"]
        assert api_main(argv) == 0
        instr = json.loads(out_path.read_text())[0]["instrumentation"]
        printed = capsys.readouterr().err.splitlines()
        assert printed[1:] == [
            f"  oracle rounds: {instr['batched_rounds']} batched / "
            f"{instr['per_session_rounds']} per-session",
            f"  events: {len(instr['events'])} retained, "
            f"{instr['dropped_events']} dropped past the log bound",
        ]
        assert f"{instr['steps']} steps" in printed[0]

    def test_run_batch_parallel_matches_serial(self, tmp_path):
        batch = [
            _spec("max_flow", "ip").to_jsonable(),
            _spec("online", "ip").to_jsonable(),
        ]
        spec_path = self._write_spec_file(tmp_path, batch)

        serial_path = tmp_path / "serial.json"
        api_main(["run", str(spec_path), "--jobs", "1", "--output", str(serial_path)])
        api.clear_caches()
        parallel_path = tmp_path / "parallel.json"
        api_main(["run", str(spec_path), "--jobs", "2", "--output", str(parallel_path)])

        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())

        def strip_timing(reports):
            out = []
            for report in reports:
                cleaned = dict(report)
                cleaned.pop("wall_seconds")
                # Engine telemetry carries wall-clock oracle timings —
                # per-run, like wall_seconds.
                cleaned.pop("instrumentation", None)
                out.append(cleaned)
            return out

        assert strip_timing(serial) == strip_timing(parallel)

    def test_run_prints_to_stdout_without_output(self, tmp_path, capsys):
        spec_path = self._write_spec_file(
            tmp_path, _spec("max_flow", "ip").to_jsonable()
        )
        assert api_main(["run", str(spec_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed[0]["summary"]["oracle_calls"] > 0

    def test_list_command(self, capsys):
        assert api_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "max_concurrent_flow" in output
        assert "dynamic" in output

    def test_example_command_round_trips(self, capsys):
        assert api_main(["example"]) == 0
        printed = capsys.readouterr().out
        spec = ScenarioSpec.from_json(printed)
        assert spec.solver == "max_flow"
