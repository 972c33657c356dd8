"""Tests for the metrics subpackage (distribution, utilization, fairness, summary)."""

import numpy as np
import pytest

from repro.api import solve_instance
from repro.core.result import FlowSolution, SessionResult
from repro.metrics.distribution import top_fraction_share, tree_rate_distribution
from repro.metrics.fairness import (
    jains_index,
    min_rate_ratio,
    throughput_improvement,
    throughput_ratio,
)
from repro.metrics.summary import compare_solutions, solution_table_row, solutions_to_table
from repro.metrics.utilization import (
    covered_edge_count,
    covered_edges_for_sessions,
    edges_per_node,
    link_utilization_series,
    mean_utilization,
    utilization_staircase,
)
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.routing.ip_routing import FixedIPRouting
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def maxflow_solution(waxman_network):
    routing = FixedIPRouting(waxman_network)
    sessions = [
        Session((0, 4, 9, 13), demand=100.0, name="s1"),
        Session((2, 7, 20), demand=100.0, name="s2"),
    ]
    return solve_instance("max_flow", sessions, routing, {"epsilon": 0.08})


class TestDistributionMetrics:
    def test_tree_rate_distribution_ends_at_one(self, maxflow_solution):
        for session_result in maxflow_solution.sessions:
            ranks, frac = tree_rate_distribution(session_result)
            assert frac[-1] == pytest.approx(1.0)
            assert ranks[-1] == pytest.approx(1.0)

    def test_top_fraction_share_bounds(self, maxflow_solution):
        share = top_fraction_share(maxflow_solution.sessions[0], 0.1)
        assert 0.0 < share <= 1.0
        assert top_fraction_share(maxflow_solution.sessions[0], 1.0) == pytest.approx(1.0)


class TestUtilizationMetrics:
    def test_covered_edges(self, waxman_network, maxflow_solution):
        sessions = [s.session for s in maxflow_solution.sessions]
        covered = covered_edges_for_sessions(waxman_network, sessions)
        assert covered.size == covered_edge_count(waxman_network, sessions)
        assert 0 < covered.size <= waxman_network.num_edges

    def test_link_utilization_series_bounds(self, waxman_network, maxflow_solution):
        sessions = [s.session for s in maxflow_solution.sessions]
        covered = covered_edges_for_sessions(waxman_network, sessions)
        ranks, utilization = link_utilization_series(maxflow_solution, covered)
        assert ranks.size == covered.size
        assert np.all(utilization <= 1.0 + 1e-9)
        assert np.all(np.diff(utilization) <= 1e-12)  # sorted descending

    def test_link_utilization_without_covered_argument(self, maxflow_solution):
        ranks, utilization = link_utilization_series(maxflow_solution)
        assert ranks.size > 0

    def test_mean_utilization(self, maxflow_solution):
        assert 0.0 < mean_utilization(maxflow_solution) <= 1.0

    def test_staircase_levels_sorted(self, maxflow_solution):
        staircase = utilization_staircase(maxflow_solution)
        levels = [level for level, _ in staircase]
        assert levels == sorted(levels, reverse=True)
        assert sum(count for _, count in staircase) > 0

    def test_edges_per_node_positive(self, waxman_network, maxflow_solution):
        sessions = [s.session for s in maxflow_solution.sessions]
        assert edges_per_node(waxman_network, sessions) > 0

    def test_edges_per_node_empty(self, waxman_network):
        assert edges_per_node(waxman_network, []) == 0.0


class TestFairnessMetrics:
    def test_jains_index_uniform(self):
        assert jains_index(np.array([2.0, 2.0, 2.0])) == pytest.approx(1.0)

    def test_jains_index_skewed(self):
        assert jains_index(np.array([1.0, 0.0, 0.0])) == pytest.approx(1 / 3)

    def test_jains_index_empty_and_zero(self):
        assert jains_index(np.array([])) == 1.0
        assert jains_index(np.zeros(3)) == 1.0

    def test_jains_index_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            jains_index(np.array([-1.0, 1.0]))

    def test_throughput_and_min_rate_ratio(self, maxflow_solution):
        assert throughput_ratio(maxflow_solution, maxflow_solution) == pytest.approx(1.0)
        assert min_rate_ratio(maxflow_solution, maxflow_solution) == pytest.approx(1.0)
        assert throughput_improvement(maxflow_solution, maxflow_solution) == 0.0

    def test_ratios_reject_a_zero_reference(self, maxflow_solution):
        empty = FlowSolution(
            algorithm="empty",
            sessions=tuple(
                SessionResult(session=s.session, tree_flows=())
                for s in maxflow_solution.sessions
            ),
            network=maxflow_solution.network,
        )
        for ratio in (throughput_ratio, throughput_improvement, min_rate_ratio):
            with pytest.raises(ConfigurationError, match="reference"):
                ratio(maxflow_solution, empty)


class TestSummary:
    def test_solution_table_row_keys(self, maxflow_solution):
        row = solution_table_row(maxflow_solution)
        assert "rate_session_1" in row
        assert "trees_session_2" in row
        assert "overall_throughput" in row

    def test_solutions_to_table_renders(self, maxflow_solution):
        text = solutions_to_table({0.9: maxflow_solution, 0.95: maxflow_solution})
        assert "0.9" in text and "0.95" in text
        assert "overall_throughput" in text

    def test_solutions_to_table_empty(self):
        assert solutions_to_table({}, title="empty") == "empty"

    def test_compare_solutions(self, maxflow_solution):
        text = compare_solutions({"MaxFlow": maxflow_solution, "Other": maxflow_solution})
        assert "MaxFlow" in text and "Other" in text
