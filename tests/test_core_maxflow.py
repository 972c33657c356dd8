"""Tests for the MaxFlow FPTAS (paper Table I)."""

import time

import numpy as np
import pytest

from repro.api import solve_instance
from repro.core.maxflow import max_flow
from repro.lp.exact import exact_max_flow
from repro.overlay.session import Session, random_session
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.topology.generators import complete_topology, paper_flat_topology
from repro.topology.network import PhysicalNetwork
from repro.util.errors import ConfigurationError


def _link():
    return [Session((0, 1))], FixedIPRouting(PhysicalNetwork(2, [(0, 1, 10.0)]))


class TestConfig:
    """The parameter rules of ``max_flow``."""

    def test_requires_exactly_one_parameter(self):
        # One of the two must be set; with both, epsilon is the one used.
        with pytest.raises(ConfigurationError):
            max_flow(*_link(), approximation_ratio=None)
        both = max_flow(*_link(), approximation_ratio=0.5, epsilon=0.1)
        assert both.epsilon == 0.1
        assert both.oracle_calls == max_flow(*_link(), epsilon=0.1).oracle_calls

    def test_ratio_to_epsilon(self):
        assert max_flow(*_link(), approximation_ratio=0.9).epsilon == pytest.approx(0.05)
        assert max_flow(*_link()).epsilon == pytest.approx(0.025)  # ratio 0.95

    def test_epsilon_bounds(self):
        with pytest.raises(ConfigurationError):
            max_flow(*_link(), epsilon=0.6)
        with pytest.raises(ConfigurationError):
            max_flow(*_link(), epsilon=0.0)
        with pytest.raises(ConfigurationError):
            max_flow(*_link(), approximation_ratio=1.0)


class TestSingleLink:
    def test_two_member_session(self):
        net = PhysicalNetwork(2, [(0, 1, 10.0)])
        solution = solve_instance(
            "max_flow", [Session((0, 1))], FixedIPRouting(net), {"epsilon": 0.05}
        )
        assert solution.is_feasible()
        assert solution.sessions[0].rate >= 0.9 * 10.0
        assert solution.sessions[0].rate <= 10.0 + 1e-9

    def test_solution_metadata(self):
        net = PhysicalNetwork(2, [(0, 1, 10.0)])
        solution = solve_instance(
            "max_flow", [Session((0, 1))], FixedIPRouting(net), {"epsilon": 0.05}
        )
        assert solution.algorithm == "MaxFlow"
        assert solution.epsilon == pytest.approx(0.05)
        assert solution.oracle_calls > 0
        assert solution.extra["iterations"] > 0


class TestAgainstExactLP:
    @pytest.mark.parametrize("epsilon", [0.1, 0.05])
    def test_triangle_session(self, epsilon):
        net = complete_topology(3, capacity=6.0)
        sessions = [Session((0, 1, 2))]
        routing = FixedIPRouting(net)
        exact = exact_max_flow(sessions, routing)
        approx = solve_instance("max_flow", sessions, routing, {"epsilon": epsilon})
        assert approx.is_feasible()
        rate = approx.sessions[0].rate
        assert rate <= exact.session_rates[0] + 1e-6
        assert rate >= (1 - 2 * epsilon) * exact.session_rates[0] - 1e-6

    def test_two_competing_sessions(self, waxman_network):
        routing = FixedIPRouting(waxman_network)
        sessions = [
            Session((0, 4, 9, 13), demand=100.0, name="s1"),
            Session((2, 7, 20), demand=100.0, name="s2"),
        ]
        exact = exact_max_flow(sessions, routing)
        approx = max_flow(sessions, routing, epsilon=0.05)
        assert approx.is_feasible()
        max_size = max(s.size for s in sessions)
        objective = sum(
            (s.session.size - 1) / (max_size - 1) * s.rate for s in approx.sessions
        )
        assert objective <= exact.objective + 1e-6
        assert objective >= (1 - 2 * 0.05) * exact.objective - 1e-6

    def test_prefers_larger_session(self, waxman_network):
        # The M1 objective favours sessions with more receivers (the paper's
        # observation in Section III-B).
        routing = FixedIPRouting(waxman_network)
        big = Session((0, 4, 9, 13, 17, 22), demand=100.0, name="big")
        small = Session((2, 7, 20), demand=100.0, name="small")
        solution = max_flow([big, small], routing, epsilon=0.1)
        assert solution.sessions[0].rate >= solution.sessions[1].rate * 0.5


class TestBehaviour:
    def test_capacity_scaling_scales_rate(self):
        net1 = complete_topology(4, capacity=10.0)
        net2 = complete_topology(4, capacity=20.0)
        sessions = [Session((0, 1, 2, 3))]
        r1 = solve_instance(
            "max_flow", sessions, FixedIPRouting(net1), {"epsilon": 0.1}
        ).sessions[0].rate
        r2 = solve_instance(
            "max_flow", sessions, FixedIPRouting(net2), {"epsilon": 0.1}
        ).sessions[0].rate
        assert r2 == pytest.approx(2 * r1, rel=0.05)

    def test_tighter_epsilon_needs_more_oracle_calls(self, waxman_network):
        routing = FixedIPRouting(waxman_network)
        sessions = [Session((0, 4, 9, 13), demand=100.0)]
        loose = max_flow(sessions, routing, epsilon=0.15)
        tight = max_flow(sessions, routing, epsilon=0.05)
        assert tight.oracle_calls > loose.oracle_calls

    def test_dynamic_routing_at_least_as_good(self, waxman_network):
        sessions = [Session((0, 4, 9, 13), demand=100.0)]
        fixed = solve_instance(
            "max_flow", sessions, FixedIPRouting(waxman_network), {"epsilon": 0.1}
        )
        dynamic = solve_instance(
            "max_flow", sessions, DynamicRouting(waxman_network), {"epsilon": 0.1}
        )
        assert dynamic.is_feasible()
        # Arbitrary routing can only help (up to FPTAS noise).
        assert dynamic.sessions[0].rate >= fixed.sessions[0].rate * 0.85

    def test_fixed_routing_makes_oracle_calls_faster_than_dynamic(self):
        # A fixed-routing oracle call is a mat-vec over cached routes plus
        # Prim; a dynamic one also runs Dijkstra.  Tiny paper_flat instance
        # (24 nodes, sessions of 4 and 3, ratio 0.8), one warm-up solve,
        # then one timed solve per routing on a fresh routing model.
        network = paper_flat_topology(num_nodes=24, capacity=100.0, seed=2004)
        rng = np.random.default_rng(2005)
        sessions = [
            random_session(network, size, demand=100.0, seed=rng, name=f"s{i}")
            for i, size in enumerate((4, 3))
        ]

        def calls_per_sec(routing):
            start = time.perf_counter()
            solution = max_flow(sessions, routing, approximation_ratio=0.8)
            return solution.oracle_calls / (time.perf_counter() - start)

        calls_per_sec(FixedIPRouting(network))
        fixed = calls_per_sec(FixedIPRouting(network))
        dynamic = calls_per_sec(DynamicRouting(network))
        assert fixed > dynamic, (fixed, dynamic)

    def test_multiple_trees_found(self, waxman_network):
        routing = FixedIPRouting(waxman_network)
        sessions = [Session((0, 4, 9, 13), demand=100.0)]
        solution = solve_instance("max_flow", sessions, routing, {"epsilon": 0.05})
        assert solution.sessions[0].num_trees > 1

    def test_no_sessions_rejected(self, waxman_network):
        with pytest.raises(ConfigurationError):
            max_flow([], FixedIPRouting(waxman_network))

    def test_iteration_cap_enforced(self, waxman_network):
        from repro.util.errors import ConvergenceError

        routing = FixedIPRouting(waxman_network)
        sessions = [Session((0, 4, 9, 13), demand=100.0)]
        with pytest.raises(ConvergenceError):
            max_flow(sessions, routing, epsilon=0.05, max_iterations=3)
