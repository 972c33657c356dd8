"""Tests for the MaxConcurrentFlow FPTAS (paper Table III)."""

import math

import pytest

from repro.api import solve_instance
from repro.core.engine import PhaseEngine
from repro.core.maxconcurrent import max_concurrent_flow, standalone_rates
from repro.core.result import FlowSolution, SessionResult
from repro.lp.exact import exact_max_concurrent_flow
from repro.overlay.session import Session
from repro.routing.ip_routing import FixedIPRouting
from repro.topology.generators import complete_topology
from repro.topology.network import PhysicalNetwork
from repro.util.errors import ConfigurationError, InvalidSessionError


def _link():
    return [Session((0, 1))], FixedIPRouting(PhysicalNetwork(2, [(0, 1, 10.0)]))


class TestConfig:
    """The parameter rules of ``max_concurrent_flow``."""

    def test_requires_exactly_one_parameter(self):
        # One of the two must be set; with both, epsilon is the one used.
        with pytest.raises(ConfigurationError):
            max_concurrent_flow(*_link(), approximation_ratio=None)
        both = max_concurrent_flow(*_link(), approximation_ratio=0.5, epsilon=0.1)
        assert both.epsilon == 0.1
        alone = max_concurrent_flow(*_link(), epsilon=0.1)
        assert both.extra == alone.extra

    def test_ratio_to_epsilon(self):
        solution = max_concurrent_flow(*_link(), approximation_ratio=0.91)
        assert solution.epsilon == pytest.approx(0.03)

    def test_epsilon_bounds(self):
        with pytest.raises(ConfigurationError):
            max_concurrent_flow(*_link(), epsilon=0.5)
        with pytest.raises(ConfigurationError):
            max_concurrent_flow(*_link(), epsilon=1.0 / 3.0)
        # prescale_epsilon runs MaxFlow, whose epsilon lies in (0, 0.5).
        with pytest.raises(ConfigurationError):
            max_concurrent_flow(*_link(), epsilon=0.1, prescale_epsilon=0.5)


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


class TestFeasibilityRescale:
    def test_overshoot_divides_every_tree_flow(self, monkeypatch):
        # Lemma 4 covers the completed phases only: on one link at ratio
        # 0.9 the last partial phase overshoots the capacity, so the
        # finish divides every tree flow by the congestion.
        engines = []
        init = PhaseEngine.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            engines.append((self, self.lengths.log_offset))

        monkeypatch.setattr(PhaseEngine, "__init__", recording_init)
        sessions, routing = _link()
        solution = max_concurrent_flow(sessions, routing, approximation_ratio=0.9)
        # The pre-scaling MaxFlow engines come first; the main run is last.
        engine, log_delta = engines[-1]
        scale = 1.0 / (-log_delta / math.log1p(solution.epsilon))
        scaled = tuple(
            SessionResult(session=acc.session, tree_flows=tuple(acc.scaled(scale)))
            for acc in engine.accumulators
        )
        congestion = FlowSolution(
            algorithm="probe", sessions=scaled, network=routing.network
        ).max_congestion()
        assert congestion > 1.0
        before = [tf.flow for s in scaled for tf in s.tree_flows]
        after = [tf.flow for s in solution.sessions for tf in s.tree_flows]
        assert after == [flow / congestion for flow in before]
        assert solution.max_congestion() <= 1.0
        # Multiplying by the reciprocal would give other last bits.
        assert any(flow * (1.0 / congestion) != flow / congestion for flow in before)


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
        approx = max_concurrent_flow(sessions, routing, epsilon=0.05)
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
            max_concurrent_flow([], FixedIPRouting(waxman_network))

    def test_invalid_session_fails_before_prescaling(self, monkeypatch):
        from repro.core import maxconcurrent

        prescaled = []
        monkeypatch.setattr(
            maxconcurrent, "max_flow", lambda *args, **kwargs: prescaled.append(args)
        )
        sessions, routing = _link()
        with pytest.raises(InvalidSessionError):
            max_concurrent_flow(sessions + [Session((0, 5))], routing)
        assert prescaled == []


class TestPrescaling:
    def test_prescale_is_one_standalone_maxflow_per_session(self, waxman_network):
        # Section III-C: beta_i is session i's MaxFlow alone on the
        # network; standalone_rates is that loop.
        routing = FixedIPRouting(waxman_network)
        sessions = [
            Session((0, 4, 9, 13), demand=100.0, name="s1"),
            Session((2, 7, 20), demand=50.0, name="s2"),
        ]
        solution = max_concurrent_flow(
            sessions, routing, epsilon=0.1, prescale_epsilon=0.2
        )
        alone = [solve_instance(
            "max_flow", [s], routing, {"epsilon": 0.2}
        ) for s in sessions]
        rates = standalone_rates(sessions, routing, 0.2)[0].tolist()
        assert rates == [a.sessions[0].rate for a in alone]
        assert solution.extra["zeta_upper_bound"] == min(
            rate / s.demand for rate, s in zip(rates, sessions)
        )
        assert solution.extra["prescale_oracle_calls"] == sum(a.oracle_calls for a in alone)
