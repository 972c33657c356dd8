"""Spec and registry tests for the Scenario API (``repro.api``).

Covers the declarative layer: JSON round-trips, canonical keys, workload
construction equivalence with the experiment settings, and the
open-registration registry (duplicate and unknown names, plugin
decorators, routing models built by name).
"""

import dataclasses
import json

import pytest

from repro.api import (
    Registry,
    ScenarioSpec,
    SessionSpec,
    TopologySpec,
    WorkloadSpec,
    build_instance,
    default_registry,
    solve,
)
from repro.api.specs import _canonical_json
from repro.core.result import FlowSolution
from repro.experiments.settings import flat_setting_for_scale, sweep_setting_for_scale
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.topology.generators import grid_topology, paper_flat_topology
from repro.util.errors import (
    ConfigurationError,
    InvalidNetworkError,
    InvalidSessionError,
)
from repro.util.serialization import from_jsonable


@pytest.fixture
def scenario() -> ScenarioSpec:
    return ScenarioSpec(
        topology=TopologySpec(
            "paper_flat", {"num_nodes": 30, "capacity": 100.0}, seed=13
        ),
        workload=WorkloadSpec(sizes=(4, 3), demand=100.0, seed=5),
        routing="ip",
        solver="max_flow",
        solver_params={"approximation_ratio": 0.8},
    )


class TestSpecRoundTrips:
    def test_scenario_json_round_trip(self, scenario):
        assert ScenarioSpec.from_json(scenario.to_json()) == scenario
        assert ScenarioSpec.from_jsonable(scenario.to_jsonable()) == scenario

    def test_round_trip_through_real_json_text(self, scenario):
        # Through an actual serialize/parse cycle, not just dict identity.
        text = json.dumps(scenario.to_jsonable())
        assert ScenarioSpec.from_jsonable(json.loads(text)) == scenario

    def test_explicit_workload_round_trip(self):
        workload = WorkloadSpec(
            sessions=(
                SessionSpec((0, 3, 9), demand=50.0, source=3, name="alpha"),
                SessionSpec((1, 2), demand=1.0),
            )
        )
        restored = WorkloadSpec.from_json(workload.to_json())
        assert restored == workload
        assert restored.sessions[0].source == 3

    def test_canonical_key_stable_and_discriminating(self, scenario):
        round_tripped = ScenarioSpec.from_json(scenario.to_json())
        assert round_tripped.canonical_key == scenario.canonical_key
        different = scenario.with_solver("max_flow", approximation_ratio=0.85)
        assert different.canonical_key != scenario.canonical_key

    def test_routing_case_shares_a_canonical_key(self, scenario):
        # One problem, one key: the routing name is stored lower-cased,
        # so a store, the serve dedupe and the queue see one spec.
        upper = dataclasses.replace(scenario, routing="IP")
        assert upper.routing == "ip"
        assert upper.canonical_key == scenario.canonical_key
        assert upper.instance_key == scenario.instance_key

    def test_instance_key_ignores_solver(self, scenario):
        other = scenario.with_solver("max_concurrent_flow", approximation_ratio=0.8)
        assert other.instance_key == scenario.instance_key
        assert other.canonical_key != scenario.canonical_key

    def test_canonical_json_is_order_independent(self):
        a = _canonical_json({"b": 1, "a": 2})
        b = _canonical_json({"a": 2, "b": 1})
        assert a == b

    def test_unknown_field_rejected(self, scenario):
        data = scenario.to_jsonable()
        data["topolgy"] = data.pop("topology")
        with pytest.raises(TypeError):
            ScenarioSpec.from_jsonable(data)

    def test_from_jsonable_type_checks(self):
        with pytest.raises(TypeError):
            from_jsonable(TopologySpec, {"generator": 42})

    def test_specs_are_hashable_despite_dict_fields(self, scenario):
        # Frozen dataclasses with dict fields (params/solver_params/
        # demand_distribution) hash by content digest, so specs work in
        # sets and as dict keys; equal specs collapse to one entry.
        twin = ScenarioSpec.from_json(scenario.to_json())
        assert len({scenario, twin}) == 1
        distributed = WorkloadSpec(
            sizes=(3,),
            demand_distribution={"kind": "uniform", "low": 1.0, "high": 2.0},
        )
        assert len({distributed, distributed}) == 1
        assert hash(scenario.topology) == hash(twin.topology)


class TestSpecConstruction:
    def test_topology_build_matches_direct_generator(self):
        spec = TopologySpec("paper_flat", {"num_nodes": 30, "capacity": 100.0}, seed=13)
        assert spec.build() == paper_flat_topology(num_nodes=30, capacity=100.0, seed=13)

    def test_unseeded_generator(self):
        spec = TopologySpec("grid", {"rows": 3, "cols": 4, "capacity": 5.0})
        assert spec.build() == grid_topology(3, 4, capacity=5.0)

    def test_flat_setting_specs_reproduce_builders(self):
        # A cell's instance is the setting's topology and workload.
        setting = flat_setting_for_scale("tiny")
        network = setting.topology_spec().build()
        direct = setting.workload_spec().build(network)
        cell_network, via_spec, _ = build_instance(
            setting.scenario_spec("ip", "maxflow", setting.ratios[0])
        )
        assert cell_network == network
        assert [(s.name, s.members, s.demand) for s in via_spec] == [
            (s.name, s.members, s.demand) for s in direct
        ]

    def test_sweep_setting_specs_reproduce_builders(self):
        setting = sweep_setting_for_scale("tiny")
        network = setting.topology_spec().build()
        direct = setting.workload_spec(2, 3).build(network)
        cell_network, via_spec, _ = build_instance(setting.scenario_spec(2, 3, "maxflow"))
        assert cell_network == network
        assert [(s.name, s.members) for s in via_spec] == [
            (s.name, s.members) for s in direct
        ]

    def test_workload_mode_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec()  # neither mode
        with pytest.raises(ConfigurationError):
            WorkloadSpec(sizes=(3,), sessions=(SessionSpec((0, 1)),))  # both


class TestNonFiniteInputs:
    """NaN and infinite capacities and demands are refused where they
    enter, naming the value — not later as a disconnected overlay."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0, True])
    def test_workload_demand_must_be_positive_finite(self, value):
        with pytest.raises(ConfigurationError, match="positive finite"):
            WorkloadSpec(sizes=(3,), demand=value)

    def test_nan_topology_capacity_names_the_value(self):
        spec = ScenarioSpec(
            topology=TopologySpec(
                "paper_flat", {"num_nodes": 20, "capacity": float("nan")}, seed=1
            ),
            workload=WorkloadSpec(sizes=(3,), seed=2),
        )
        with pytest.raises(InvalidNetworkError, match="got nan"):
            solve(spec)

    @pytest.mark.parametrize("solver", ["max_concurrent_flow", "online"])
    def test_infinite_session_demand_is_refused(self, solver):
        spec = ScenarioSpec(
            topology=TopologySpec("grid", {"rows": 3, "cols": 3, "capacity": 5.0}),
            workload=WorkloadSpec(
                sessions=(SessionSpec((0, 8), demand=float("inf")),)
            ),
            solver=solver,
        )
        with pytest.raises(InvalidSessionError, match="got inf"):
            solve(spec)


class TestDemandDistribution:
    def test_default_is_omitted_from_json_preserving_canonical_keys(self):
        # The field must not perturb the digest of pre-existing specs:
        # its default is absent from the JSON form entirely.
        workload = WorkloadSpec(sizes=(4, 3), demand=100.0, seed=5)
        data = workload.to_jsonable()
        assert "demand_distribution" not in data
        legacy_shape = {
            "sizes": [4, 3],
            "demand": 100.0,
            "seed": 5,
            "spread_across_levels": True,
            "sessions": [],
        }
        assert data == legacy_shape
        assert WorkloadSpec.from_jsonable(legacy_shape) == workload

    def test_default_omitted_when_nested_in_scenario_spec(self, scenario):
        # Regression: the omission must hold at every nesting depth —
        # the scenario-level digest is what the store, the report cache
        # and the cluster queue actually key on.
        data = scenario.to_jsonable()
        assert "demand_distribution" not in data["workload"]
        import hashlib

        legacy_digest = hashlib.sha256(
            _canonical_json(
                {
                    "topology": {
                        "generator": "paper_flat",
                        "params": {"num_nodes": 30, "capacity": 100.0},
                        "seed": 13,
                    },
                    "workload": {
                        "sizes": [4, 3],
                        "demand": 100.0,
                        "seed": 5,
                        "spread_across_levels": True,
                        "sessions": [],
                    },
                    "routing": "ip",
                    "solver": "max_flow",
                    "solver_params": {"approximation_ratio": 0.8},
                }
            ).encode("utf-8")
        ).hexdigest()
        assert scenario.canonical_key == legacy_digest
        # And the instance digest (shared-instance cache key) as well.
        assert "demand_distribution" not in json.dumps(scenario.to_jsonable())

    def test_round_trip_with_distribution(self):
        workload = WorkloadSpec(
            sizes=(4, 3),
            seed=5,
            demand_distribution={"kind": "uniform", "low": 50.0, "high": 150.0},
        )
        data = json.loads(json.dumps(workload.to_jsonable()))
        assert data["demand_distribution"] == {
            "kind": "uniform",
            "low": 50.0,
            "high": 150.0,
        }
        restored = WorkloadSpec.from_jsonable(data)
        assert restored == workload
        assert restored.canonical_key == workload.canonical_key
        assert (
            restored.canonical_key
            != WorkloadSpec(sizes=(4, 3), seed=5).canonical_key
        )

    def test_member_placement_unchanged_by_distribution(self, waxman_network):
        # Demands are drawn after all members are placed, so adding a
        # distribution must not move any session's members.
        base = WorkloadSpec(sizes=(4, 3), demand=100.0, seed=5)
        distributed = WorkloadSpec(
            sizes=(4, 3),
            seed=5,
            demand_distribution={"kind": "uniform", "low": 50.0, "high": 150.0},
        )
        plain = base.build(waxman_network)
        drawn = distributed.build(waxman_network)
        assert [s.members for s in plain] == [s.members for s in drawn]
        assert [s.name for s in plain] == [s.name for s in drawn]
        assert all(50.0 <= s.demand <= 150.0 for s in drawn)
        # Deterministic: the same spec draws the same demands.
        again = distributed.build(waxman_network)
        assert [s.demand for s in again] == [s.demand for s in drawn]

    def test_constant_and_exponential_kinds(self, waxman_network):
        constant = WorkloadSpec(
            sizes=(3,), seed=2, demand_distribution={"kind": "constant", "value": 42.0}
        ).build(waxman_network)
        assert [s.demand for s in constant] == [42.0]
        exponential = WorkloadSpec(
            sizes=(3, 3),
            seed=2,
            demand_distribution={"kind": "exponential", "mean": 10.0},
        ).build(waxman_network)
        assert all(s.demand > 0 for s in exponential)

    def test_distribution_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(sizes=(3,), demand_distribution={"kind": "zipf", "s": 2})
        with pytest.raises(ConfigurationError):  # missing parameter
            WorkloadSpec(sizes=(3,), demand_distribution={"kind": "uniform", "low": 1.0})
        with pytest.raises(ConfigurationError):  # stray parameter
            WorkloadSpec(
                sizes=(3,),
                demand_distribution={"kind": "constant", "value": 1.0, "extra": 2},
            )
        with pytest.raises(ConfigurationError):  # explicit mode excluded
            WorkloadSpec(
                sessions=(SessionSpec((0, 1)),),
                demand_distribution={"kind": "constant", "value": 1.0},
            )
        with pytest.raises(ConfigurationError):  # bad range, caught early
            WorkloadSpec(
                sizes=(3,),
                demand_distribution={"kind": "uniform", "low": 150.0, "high": 50.0},
            )
        with pytest.raises(ConfigurationError):  # non-numeric value
            WorkloadSpec(
                sizes=(3,), demand_distribution={"kind": "constant", "value": "a"}
            )
        with pytest.raises(ConfigurationError):  # non-positive mean
            WorkloadSpec(
                sizes=(3,), demand_distribution={"kind": "exponential", "mean": 0.0}
            )
        with pytest.raises(ConfigurationError):  # non-positive constant
            WorkloadSpec(
                sizes=(3,), demand_distribution={"kind": "constant", "value": -1.0}
            )
        with pytest.raises(ConfigurationError):  # non-positive uniform low
            WorkloadSpec(
                sizes=(3,),
                demand_distribution={"kind": "uniform", "low": -5.0, "high": 5.0},
            )
        with pytest.raises(ConfigurationError):  # flat demand is unused
            WorkloadSpec(
                sizes=(3,),
                demand=50.0,
                demand_distribution={"kind": "constant", "value": 1.0},
            )
        with pytest.raises(ConfigurationError):  # inf poisons canonical JSON
            WorkloadSpec(
                sizes=(3,),
                demand_distribution={"kind": "constant", "value": float("inf")},
            )
        with pytest.raises(ConfigurationError):  # NaN slips every <= check
            WorkloadSpec(
                sizes=(3,),
                demand_distribution={"kind": "exponential", "mean": float("nan")},
            )

    def test_distributed_demand_spec_solves(self):
        from repro import api

        spec = ScenarioSpec(
            topology=TopologySpec(
                "paper_flat", {"num_nodes": 24, "capacity": 100.0}, seed=3
            ),
            workload=WorkloadSpec(
                sizes=(3,),
                seed=4,
                demand_distribution={"kind": "uniform", "low": 50.0, "high": 150.0},
            ),
            solver="max_flow",
            solver_params={"approximation_ratio": 0.8},
        )
        report = api.solve(ScenarioSpec.from_json(spec.to_json()))
        assert report.solution.overall_throughput > 0

    def test_empty_names_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec("")
        topology = TopologySpec("grid", {"rows": 2, "cols": 2})
        workload = WorkloadSpec(sizes=(2,))
        with pytest.raises(ConfigurationError):
            ScenarioSpec(topology=topology, workload=workload, routing="")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(topology=topology, workload=workload, solver="")


class TestRegistry:
    def test_builtins_present(self):
        registry = default_registry()
        for name in ("max_flow", "max_concurrent_flow", "online", "randomized_rounding"):
            assert name in registry.solver_names()
        for name in ("ip", "dynamic"):
            assert name in registry.routing_names()
        for name in ("paper_flat", "paper_two_level", "waxman", "grid"):
            assert name in registry.topology_names()

    def test_builtin_solver_parameters(self):
        # A spec's solver_params are the registered function's keyword
        # parameters; these are the keys (and defaults) each name takes.
        # randomized_rounding's seed has no default: a spec must give it.
        import inspect

        expected = {
            "max_flow": {
                "approximation_ratio": 0.95, "epsilon": None, "max_iterations": None,
            },
            "max_concurrent_flow": {
                "approximation_ratio": 0.95, "epsilon": None,
                "prescale_epsilon": 0.1, "max_steps": None,
            },
            "randomized_rounding": {
                "max_trees": 1, "seed": inspect.Parameter.empty,
                "approximation_ratio": 0.95,
                "epsilon": None, "prescale_epsilon": 0.1,
            },
            "online": {
                "sigma": 10.0, "group_by_members": True,
                "apply_no_bottleneck_scaling": False,
            },
        }
        registry = default_registry()
        for name, params in expected.items():
            signature = inspect.signature(registry.solver(name))
            names = list(signature.parameters)
            assert names[:2] == ["sessions", "routing"], name
            assert {
                key: signature.parameters[key].default for key in names[2:]
            } == params, name

    def test_duplicate_name_rejected(self):
        registry = Registry()
        registry.register_solver("mine", lambda sessions, routing: None)
        with pytest.raises(ConfigurationError):
            registry.register_solver("mine", lambda sessions, routing: None)

    def test_unknown_name_rejected(self):
        registry = Registry()
        with pytest.raises(ConfigurationError):
            registry.solver("nope")
        with pytest.raises(ConfigurationError):
            registry.topology("nope")
        with pytest.raises(ConfigurationError):
            registry.routing("nope")

    def test_former_aliases_are_unknown_names(self):
        # Each built-in has one name, so one problem has one key.
        registry = default_registry()
        for name in ("fixed", "fixed-ip", "static", "arbitrary"):
            with pytest.raises(ConfigurationError) as refused:
                registry.routing(name)
            assert "registered: dynamic, ip" in str(refused.value)
        solvers = ", ".join(registry.solver_names())
        for name in ("maxflow", "maxconcurrent"):
            with pytest.raises(ConfigurationError) as refused:
                registry.solver(name)
            assert f"registered: {solvers}" in str(refused.value)

    def test_routing_names_fold_case(self, diamond_network):
        registry = Registry()
        registry.register_routing("Mixed-Case", FixedIPRouting)
        assert registry.routing_names() == ["mixed-case"]
        assert registry.routing("MIXED-case") is FixedIPRouting
        routing = registry.build_routing(diamond_network, "Mixed-Case")
        assert isinstance(routing, FixedIPRouting)

    def test_decorator_registration_and_removal(self):
        registry = Registry()

        @registry.register_solver("constant")
        def constant_solver(sessions, routing, value=1.0):
            return value

        assert registry.solver("constant") is constant_solver
        registry.remove("solver", "constant")
        with pytest.raises(ConfigurationError):
            registry.solver("constant")
        with pytest.raises(ConfigurationError):
            registry.remove("solver", "constant")
        with pytest.raises(ConfigurationError):
            registry.remove("gadget", "constant")

    def test_plugin_solver_addressable_from_spec(self, scenario):
        import dataclasses

        from repro.api import register_solver, solve
        from repro.core.maxflow import max_flow

        @register_solver("test_plugin_tagged_max_flow")
        def tagged(sessions, routing, approximation_ratio=0.9):
            solution = max_flow(sessions, routing, approximation_ratio)
            return dataclasses.replace(
                solution, algorithm=f"Tagged@{approximation_ratio}"
            )

        try:
            spec = scenario.with_solver(
                "test_plugin_tagged_max_flow", approximation_ratio=0.8
            )
            report = solve(spec)
            assert isinstance(report.solution, FlowSolution)
            assert report.solution.algorithm == "Tagged@0.8"
            baseline = solve(scenario)
            assert report.solution.overall_throughput == (
                baseline.solution.overall_throughput
            )
        finally:
            default_registry().remove("solver", "test_plugin_tagged_max_flow")


class TestMakeRoutingShim:
    """Routing models built by registered name, in any case."""

    def test_aliases(self, diamond_network):
        build = default_registry().build_routing
        for kind in ("ip", "IP"):
            assert isinstance(build(diamond_network, kind), FixedIPRouting)
        for kind in ("dynamic", "Dynamic"):
            assert isinstance(build(diamond_network, kind), DynamicRouting)

    def test_unknown_kind(self, diamond_network):
        with pytest.raises(ConfigurationError):
            default_registry().build_routing(diamond_network, "pigeon")
