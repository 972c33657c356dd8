"""End-to-end integration tests across the whole pipeline.

These tests exercise the exact scenario of the paper at small scale:
generate a topology, place competing sessions, run every algorithm, and
check the cross-algorithm relationships the paper reports (feasibility,
fairness versus throughput, the limited-tree approximation quality, and
the negligible impact of IP routing).
"""

import numpy as np
import pytest

from repro import (
    DynamicRouting,
    FixedIPRouting,
    RandomMinCongestion,
    Session,
    paper_flat_topology,
    solve_instance,
)
from repro.core.maxconcurrent import standalone_rates
from repro.lp.exact import exact_max_concurrent_flow, exact_max_flow
from repro.metrics.fairness import jains_index


@pytest.fixture(scope="module")
def scenario():
    network = paper_flat_topology(num_nodes=36, seed=13)
    routing = FixedIPRouting(network)
    sessions = [
        Session((0, 5, 11, 17), demand=100.0, name="session-1"),
        Session((2, 8, 23), demand=100.0, name="session-2"),
    ]
    return network, routing, sessions


@pytest.fixture(scope="module")
def maxflow_solution(scenario):
    _, routing, sessions = scenario
    return solve_instance("max_flow", sessions, routing, {"epsilon": 0.05})


@pytest.fixture(scope="module")
def concurrent_solution(scenario):
    _, routing, sessions = scenario
    return solve_instance("max_concurrent_flow", sessions, routing, {"epsilon": 0.05})


class TestPipelineAgainstExactOptima:
    def test_maxflow_within_guarantee(self, scenario, maxflow_solution):
        _, routing, sessions = scenario
        exact = exact_max_flow(sessions, routing)
        max_size = max(s.size for s in sessions)
        objective = sum(
            (s.session.size - 1) / (max_size - 1) * s.rate
            for s in maxflow_solution.sessions
        )
        assert maxflow_solution.is_feasible()
        assert objective <= exact.objective + 1e-6
        assert objective >= 0.9 * exact.objective - 1e-6

    def test_concurrent_within_guarantee(self, scenario, concurrent_solution):
        _, routing, sessions = scenario
        exact = exact_max_concurrent_flow(sessions, routing)
        assert concurrent_solution.is_feasible()
        assert concurrent_solution.concurrent_throughput <= exact.objective + 1e-6
        assert concurrent_solution.concurrent_throughput >= 0.85 * exact.objective - 1e-6

    def test_standalone_rates_upper_bound_concurrent(self, scenario, concurrent_solution):
        _, routing, sessions = scenario
        standalone = standalone_rates(sessions, routing, 0.1)[0].tolist()
        for session_result, alone in zip(concurrent_solution.sessions, standalone):
            assert session_result.rate <= alone * 1.1 + 1e-6


class TestPaperFindings:
    def test_fairness_versus_throughput(self, maxflow_solution, concurrent_solution):
        # Finding 2 of the paper: enforcing max-min fairness costs little
        # overall throughput (ratio stays above 80%).
        ratio = (
            concurrent_solution.overall_throughput
            / maxflow_solution.overall_throughput
        )
        assert ratio >= 0.8
        assert ratio <= 1.05
        # And fairness improves (or at least does not degrade) Jain's index.
        assert jains_index(concurrent_solution.session_rates) >= jains_index(
            maxflow_solution.session_rates
        ) - 1e-6

    def test_limited_trees_approach_optimum(self, concurrent_solution):
        # Finding 3: a limited number of trees captures most of the optimal
        # capacity utilisation.
        rounding = RandomMinCongestion(concurrent_solution, seed=5)
        few = rounding.average_over_trials(1, trials=20, seed=1)["mean_throughput"]
        many = rounding.average_over_trials(12, trials=20, seed=2)["mean_throughput"]
        assert many >= few
        assert many >= 0.5 * concurrent_solution.overall_throughput

    def test_arbitrary_routing_never_hurts(self, scenario, maxflow_solution):
        # Section V: removing the fixed-IP-routing restriction can only help
        # (up to FPTAS noise).  The *magnitude* of the gain is topology
        # dependent — the paper's 100-node instance shows <1%, while small
        # sparse instances can gain substantially — so we only assert the
        # direction and feasibility here; Tables VII/VIII report the
        # measured magnitudes (``throughput_improvement_vs_ip`` in their
        # data).
        network, _, sessions = scenario
        dynamic = solve_instance(
            "max_flow", sessions, DynamicRouting(network), {"epsilon": 0.05}
        )
        assert dynamic.is_feasible()
        assert dynamic.overall_throughput >= 0.9 * maxflow_solution.overall_throughput

    def test_online_algorithm_viable(self, scenario, maxflow_solution):
        network, routing, sessions = scenario
        arrivals = [copy for s in sessions for copy in s.replicate(10, demand=1.0)]
        rng = np.random.default_rng(3)
        order = rng.permutation(len(arrivals))
        online = solve_instance(
            "online", [arrivals[i] for i in order], routing, {"sigma": 50.0}
        )
        assert online.is_feasible(tolerance=1e-6)
        # The online solution reaches a meaningful fraction of the offline
        # optimum even with a single tree per arrival.
        assert online.overall_throughput >= 0.3 * maxflow_solution.overall_throughput
