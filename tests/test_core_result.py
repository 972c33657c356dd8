"""Tests for the flow solution containers."""

import numpy as np
import pytest

from repro.core.result import (
    FlowSolution,
    SessionFlowAccumulator,
    SessionResult,
    TreeFlow,
)
from repro.metrics.distribution import tree_rate_distribution
from repro.metrics.utilization import link_utilization_series
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.routing.ip_routing import FixedIPRouting
from repro.util.errors import ConfigurationError


@pytest.fixture
def diamond_trees(diamond_network):
    # Members 0, 1, 2 are pairwise adjacent, so every overlay edge maps to
    # a single unambiguous physical link.
    routing = FixedIPRouting(diamond_network)
    pairs_a = [(0, 1), (1, 2)]
    pairs_b = [(0, 1), (0, 2)]
    paths = routing.paths_for_pairs(pairs_a + pairs_b)
    tree_a = OverlayTree.from_paths([0, 1, 2], pairs_a, paths, diamond_network.num_edges)
    tree_b = OverlayTree.from_paths([0, 1, 2], pairs_b, paths, diamond_network.num_edges)
    return tree_a, tree_b


class TestTreeFlow:
    def test_negative_flow_rejected(self, diamond_trees):
        with pytest.raises(ConfigurationError):
            TreeFlow(tree=diamond_trees[0], flow=-1.0)


class TestAccumulator:
    def test_accumulates_same_tree(self, diamond_trees):
        acc = SessionFlowAccumulator(session=Session((0, 1, 2)))
        acc.add(diamond_trees[0], 2.0)
        acc.add(diamond_trees[0], 3.0)
        assert acc.num_trees == 1
        [tree_flow] = acc.scaled(1.0)
        assert tree_flow.flow == 5.0

    def test_distinct_trees_counted(self, diamond_trees):
        acc = SessionFlowAccumulator(session=Session((0, 1, 2)))
        acc.add(diamond_trees[0], 1.0)
        acc.add(diamond_trees[1], 1.0)
        assert acc.num_trees == 2

    def test_zero_flow_ignored(self, diamond_trees):
        acc = SessionFlowAccumulator(session=Session((0, 1, 2)))
        acc.add(diamond_trees[0], 0.0)
        assert acc.num_trees == 0

    def test_negative_flow_rejected(self, diamond_trees):
        acc = SessionFlowAccumulator(session=Session((0, 1, 2)))
        with pytest.raises(ConfigurationError):
            acc.add(diamond_trees[0], -2.0)

    def test_scaled_output(self, diamond_trees):
        acc = SessionFlowAccumulator(session=Session((0, 1, 2)))
        acc.add(diamond_trees[0], 4.0)
        scaled = acc.scaled(0.5)
        assert len(scaled) == 1
        assert scaled[0].flow == pytest.approx(2.0)


def _make_solution(diamond_network, diamond_trees, flows=(3.0, 1.0)):
    session = Session((0, 1, 2), demand=5.0)
    result = SessionResult(
        session=session,
        tree_flows=(
            TreeFlow(tree=diamond_trees[0], flow=flows[0]),
            TreeFlow(tree=diamond_trees[1], flow=flows[1]),
        ),
    )
    return FlowSolution(
        algorithm="test",
        sessions=(result,),
        network=diamond_network,
        epsilon=0.1,
        oracle_calls=7,
    )


class TestSessionResult:
    def test_rate_and_trees(self, diamond_network, diamond_trees):
        solution = _make_solution(diamond_network, diamond_trees)
        session_result = solution.sessions[0]
        assert session_result.rate == pytest.approx(4.0)
        assert session_result.num_trees == 2
        assert session_result.aggregate_receiver_rate == pytest.approx(8.0)

    def test_edge_flows(self, diamond_network, diamond_trees):
        solution = _make_solution(diamond_network, diamond_trees)
        flows = solution.sessions[0].edge_flows(diamond_network.num_edges)
        # Edge (0,1) is used by both trees: 3 + 1 units.
        assert flows[diamond_network.edge_id(0, 1)] == pytest.approx(4.0)

    def test_rate_distribution(self, diamond_network, diamond_trees):
        solution = _make_solution(diamond_network, diamond_trees)
        ranks, frac = tree_rate_distribution(solution.sessions[0])
        assert frac[0] == pytest.approx(0.75)
        assert frac[-1] == pytest.approx(1.0)


def test_session_edge_flows_one_scatter_matches_loop(waxman_network):
    # edge_flows scatters every tree in one np.add.at; it must equal the
    # per-tree fancy-+= loop bit for bit.
    session = Session((0, 4, 9, 13), demand=100.0, name="s1")
    oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(waxman_network))
    rng = np.random.default_rng(11)
    flows = []
    for _ in range(5):
        tree = oracle.minimum_tree(
            rng.uniform(0.5, 2.0, waxman_network.num_edges)
        ).tree
        flows.append(TreeFlow(tree=tree, flow=float(rng.uniform(0.1, 2.0))))
    result = SessionResult(session=session, tree_flows=tuple(flows))
    out = result.edge_flows(waxman_network.num_edges)
    reference = np.zeros(waxman_network.num_edges, dtype=float)
    for tf in flows:
        reference[tf.tree.physical_edges] += tf.tree.usage_values * tf.flow
    assert np.array_equal(out, reference)
    empty = SessionResult(session=session, tree_flows=())
    assert np.array_equal(
        empty.edge_flows(waxman_network.num_edges),
        np.zeros(waxman_network.num_edges),
    )


class TestFlowSolution:
    def test_headline_metrics(self, diamond_network, diamond_trees):
        solution = _make_solution(diamond_network, diamond_trees)
        assert solution.overall_throughput == pytest.approx(8.0)
        assert solution.min_rate == pytest.approx(4.0)
        assert solution.concurrent_throughput == pytest.approx(0.8)
        assert solution.num_trees_per_session == [2]

    def test_feasibility_check(self, diamond_network, diamond_trees):
        feasible = _make_solution(diamond_network, diamond_trees, flows=(3.0, 1.0))
        assert feasible.is_feasible()
        infeasible = _make_solution(diamond_network, diamond_trees, flows=(50.0, 1.0))
        assert not infeasible.is_feasible()

    def test_max_congestion(self, diamond_network, diamond_trees):
        solution = _make_solution(diamond_network, diamond_trees)
        assert solution.max_congestion() == pytest.approx(0.4)  # 4 units on cap 10

    def test_link_utilization_covered_only(self, diamond_network, diamond_trees):
        solution = _make_solution(diamond_network, diamond_trees)
        _, covered = link_utilization_series(solution)
        every_edge = np.arange(diamond_network.num_edges)
        _, full = link_utilization_series(solution, every_edge)
        assert covered.size <= full.size
        assert full.size == diamond_network.num_edges

    def test_summary_keys(self, diamond_network, diamond_trees):
        summary = _make_solution(diamond_network, diamond_trees).summary()
        assert "overall_throughput" in summary
        assert "rate_session_1" in summary
        assert "trees_session_1" in summary
