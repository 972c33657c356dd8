"""Tests for the MaxConcurrentFlow FPTAS (paper Table III)."""

import pytest

from repro.api import solve_instance
from repro.core.maxconcurrent import (
    MaxConcurrentFlow,
    MaxConcurrentFlowConfig,
    standalone_rates,
)
from repro.lp.exact import exact_max_concurrent_flow
from repro.overlay.session import Session
from repro.routing.ip_routing import FixedIPRouting
from repro.topology.generators import complete_topology
from repro.topology.network import PhysicalNetwork
from repro.util.errors import ConfigurationError


class TestConfig:
    def test_requires_exactly_one_parameter(self):
        with pytest.raises(ConfigurationError):
            MaxConcurrentFlowConfig().resolved_epsilon()
        with pytest.raises(ConfigurationError):
            MaxConcurrentFlowConfig(epsilon=0.1, approximation_ratio=0.9).resolved_epsilon()

    def test_ratio_to_epsilon(self):
        config = MaxConcurrentFlowConfig(approximation_ratio=0.91)
        assert config.resolved_epsilon() == pytest.approx(0.03)

    def test_epsilon_bounds(self):
        with pytest.raises(ConfigurationError):
            MaxConcurrentFlowConfig(epsilon=0.5).resolved_epsilon()


class TestSingleLink:
    def test_shared_link_split_fairly(self):
        net = PhysicalNetwork(2, [(0, 1, 10.0)])
        sessions = [
            Session((0, 1), demand=1.0, name="a"),
            Session((0, 1), demand=1.0, name="b"),
        ]
        solution = solve_instance(
            "max_concurrent_flow", sessions, FixedIPRouting(net), {"epsilon": 0.05}
        )
        assert solution.is_feasible()
        rates = solution.session_rates
        # Equal demands on a shared link: rates within a few percent of each other.
        assert rates.min() >= 0.85 * rates.max()
        assert rates.sum() <= 10.0 + 1e-6
        assert solution.concurrent_throughput >= (1 - 3 * 0.05) * 5.0 - 1e-6

    def test_metadata(self):
        net = PhysicalNetwork(2, [(0, 1, 10.0)])
        solution = solve_instance(
            "max_concurrent_flow",
            [Session((0, 1), demand=1.0)],
            FixedIPRouting(net),
            {"epsilon": 0.1},
        )
        assert solution.algorithm == "MaxConcurrentFlow"
        assert solution.extra["phases"] >= 1
        assert solution.extra["prescale_oracle_calls"] > 0
        assert solution.oracle_calls >= solution.extra["main_oracle_calls"]


class TestAgainstExactLP:
    def test_single_session_close_to_optimum(self):
        net = complete_topology(4, capacity=8.0)
        sessions = [Session((0, 1, 2, 3), demand=4.0)]
        routing = FixedIPRouting(net)
        exact = exact_max_concurrent_flow(sessions, routing)
        approx = solve_instance(
            "max_concurrent_flow", sessions, routing, {"epsilon": 0.05}
        )
        assert approx.is_feasible()
        assert approx.concurrent_throughput <= exact.objective + 1e-6
        assert approx.concurrent_throughput >= (1 - 3 * 0.05) * exact.objective - 1e-4

    def test_two_sessions_close_to_optimum(self, waxman_network):
        routing = FixedIPRouting(waxman_network)
        sessions = [
            Session((0, 4, 9, 13), demand=100.0, name="s1"),
            Session((2, 7, 20), demand=100.0, name="s2"),
        ]
        exact = exact_max_concurrent_flow(sessions, routing)
        approx = MaxConcurrentFlow(
            sessions, routing, MaxConcurrentFlowConfig(epsilon=0.05)
        ).solve()
        assert approx.is_feasible()
        assert approx.concurrent_throughput <= exact.objective + 1e-6
        assert approx.concurrent_throughput >= (1 - 3 * 0.05) * exact.objective - 1e-4

    def test_weighted_fairness_follows_demands(self):
        # Demands 1 and 3 on a shared link: routed rates stay close to the
        # 1:3 ratio enforced by the phase structure.
        net = PhysicalNetwork(2, [(0, 1, 12.0)])
        sessions = [
            Session((0, 1), demand=1.0, name="light"),
            Session((0, 1), demand=3.0, name="heavy"),
        ]
        solution = solve_instance(
            "max_concurrent_flow", sessions, FixedIPRouting(net), {"epsilon": 0.05}
        )
        ratio = solution.sessions[1].rate / solution.sessions[0].rate
        assert ratio == pytest.approx(3.0, rel=0.15)


class TestBehaviourVersusMaxFlow:
    def test_raises_minimum_rate(self, waxman_network):
        routing = FixedIPRouting(waxman_network)
        sessions = [
            Session((0, 4, 9, 13, 17, 25), demand=100.0, name="big"),
            Session((2, 7, 20), demand=100.0, name="small"),
        ]
        throughput_solution = solve_instance(
            "max_flow", sessions, routing, {"epsilon": 0.1}
        )
        fair_solution = solve_instance(
            "max_concurrent_flow", sessions, routing, {"epsilon": 0.1}
        )
        # Fairness lifts the weakest session (or keeps it, within FPTAS noise)...
        assert fair_solution.min_rate >= throughput_solution.min_rate * 0.9
        # ...at the price of overall throughput.
        assert (
            fair_solution.overall_throughput
            <= throughput_solution.overall_throughput * 1.05
        )

    def test_no_sessions_rejected(self, waxman_network):
        with pytest.raises(ConfigurationError):
            MaxConcurrentFlow([], FixedIPRouting(waxman_network))


class TestPrescaling:
    def test_prescale_is_one_standalone_maxflow_per_session(self, waxman_network):
        # Section III-C: beta_i is session i's MaxFlow alone on the
        # network; standalone_rates is that loop.
        routing = FixedIPRouting(waxman_network)
        sessions = [
            Session((0, 4, 9, 13), demand=100.0, name="s1"),
            Session((2, 7, 20), demand=50.0, name="s2"),
        ]
        solution = MaxConcurrentFlow(
            sessions,
            routing,
            MaxConcurrentFlowConfig(epsilon=0.1, prescale_epsilon=0.2),
        ).solve()
        alone = [solve_instance(
            "max_flow", [s], routing, {"epsilon": 0.2}
        ) for s in sessions]
        rates = standalone_rates(sessions, routing, 0.2)[0].tolist()
        assert rates == [a.sessions[0].rate for a in alone]
        assert solution.extra["zeta_upper_bound"] == min(
            rate / s.demand for rate, s in zip(rates, sessions)
        )
        assert solution.extra["prescale_oracle_calls"] == sum(a.oracle_calls for a in alone)
