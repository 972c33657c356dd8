"""Tests for the minimum overlay spanning tree oracle."""

import numpy as np
import pytest

from repro.overlay.oracle import MinimumOverlayTreeOracle, build_oracles
from repro.overlay.session import Session
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.util.errors import ConfigurationError, InvalidSessionError


class TestFixedRoutingOracle:
    def test_minimum_tree_spans_members(self, diamond_network):
        session = Session((0, 1, 3))
        oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(diamond_network))
        result = oracle.minimum_tree(np.ones(diamond_network.num_edges))
        assert set(result.tree.members) == {0, 1, 3}
        assert len(result.tree.overlay_edges) == 2

    def test_minimum_tree_is_optimal_over_all_trees(self, diamond_network):
        session = Session((0, 1, 3))
        routing = FixedIPRouting(diamond_network)
        oracle = MinimumOverlayTreeOracle(session, routing)
        rng = np.random.default_rng(3)
        candidate_trees = [
            [(0, 1), (0, 3)],
            [(0, 1), (1, 3)],
            [(0, 3), (1, 3)],
        ]
        for _ in range(5):
            lengths = rng.uniform(0.1, 20.0, diamond_network.num_edges)
            result = oracle.minimum_tree(lengths)
            paths = routing.paths_for_pairs([(0, 1), (0, 3), (1, 3)])
            best = min(
                sum(paths[e].length(lengths) for e in tree) for tree in candidate_trees
            )
            assert result.length == pytest.approx(best)

    def test_length_matches_tree(self, diamond_network):
        session = Session((0, 1, 2, 3))
        oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(diamond_network))
        lengths = np.linspace(1.0, 2.0, diamond_network.num_edges)
        result = oracle.minimum_tree(lengths)
        assert result.length == pytest.approx(result.tree.length(lengths))

    def test_call_count_increments(self, diamond_network):
        session = Session((0, 1, 3))
        oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(diamond_network))
        lengths = np.ones(diamond_network.num_edges)
        oracle.minimum_tree(lengths)
        oracle.minimum_tree(lengths)
        assert oracle.call_count == 2

    def test_normalized_length(self, diamond_network):
        session = Session((0, 1, 3))
        oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(diamond_network))
        result = oracle.minimum_tree(np.ones(diamond_network.num_edges))
        # Session size 3 -> 2 receivers; with |Smax| = 5 the factor is (5-1)/(3-1) = 2.
        assert oracle.normalized_length(result, 5) == pytest.approx(2.0 * result.length)
        assert oracle.normalized_length(result, 3) == pytest.approx(result.length)

    def test_normalized_length_invalid_smax(self, diamond_network):
        session = Session((0, 1, 3))
        oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(diamond_network))
        result = oracle.minimum_tree(np.ones(diamond_network.num_edges))
        with pytest.raises(ConfigurationError):
            oracle.normalized_length(result, 1)

    def test_max_route_length(self, path_network):
        session = Session((0, 4))
        oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(path_network))
        assert oracle.max_route_length() == 4

    def test_covered_edges(self, diamond_network):
        session = Session((0, 3))
        oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(diamond_network))
        assert oracle.covered_edges().size == 2  # one 2-hop route

    def test_member_outside_network_rejected(self, diamond_network):
        with pytest.raises(InvalidSessionError):
            MinimumOverlayTreeOracle(Session((0, 99)), FixedIPRouting(diamond_network))


class TestDynamicRoutingOracle:
    def test_tree_adapts_to_lengths(self, diamond_network):
        session = Session((0, 3))
        oracle = MinimumOverlayTreeOracle(session, DynamicRouting(diamond_network))
        lengths = np.ones(diamond_network.num_edges)
        oracle.minimum_tree(lengths)
        # Penalise the 0-1 and 1-3 route; the dynamic oracle must reroute
        # through 0-2-3 while a fixed-route oracle could not change paths.
        lengths[diamond_network.edge_id(0, 1)] = 50.0
        lengths[diamond_network.edge_id(1, 3)] = 50.0
        rerouted = oracle.minimum_tree(lengths)
        assert rerouted.tree.usage_of(diamond_network.edge_id(0, 2)) == 1.0
        assert rerouted.tree.usage_of(diamond_network.edge_id(2, 3)) == 1.0

    def test_matches_fixed_on_uniform_lengths(self, waxman_network):
        session = Session((1, 6, 14, 21))
        fixed = MinimumOverlayTreeOracle(session, FixedIPRouting(waxman_network))
        dynamic = MinimumOverlayTreeOracle(session, DynamicRouting(waxman_network))
        ones = np.ones(waxman_network.num_edges)
        assert fixed.minimum_tree(ones).length == pytest.approx(
            dynamic.minimum_tree(ones).length
        )

    def test_dynamic_never_longer_than_fixed(self, waxman_network):
        session = Session((2, 9, 18, 30))
        fixed = MinimumOverlayTreeOracle(session, FixedIPRouting(waxman_network))
        dynamic = MinimumOverlayTreeOracle(session, DynamicRouting(waxman_network))
        rng = np.random.default_rng(5)
        for _ in range(5):
            lengths = rng.uniform(0.1, 10.0, waxman_network.num_edges)
            assert (
                dynamic.minimum_tree(lengths).length
                <= fixed.minimum_tree(lengths).length + 1e-9
            )

    def test_covered_edges_dynamic(self, diamond_network):
        session = Session((0, 3))
        oracle = MinimumOverlayTreeOracle(session, DynamicRouting(diamond_network))
        assert oracle.covered_edges().size >= 2


class TestOracleHelpers:
    def test_build_oracles_and_total_calls(self, diamond_network):
        sessions = [Session((0, 1)), Session((2, 3))]
        oracles = build_oracles(sessions, FixedIPRouting(diamond_network))
        assert len(oracles) == 2
        lengths = np.ones(diamond_network.num_edges)
        oracles[0].minimum_tree(lengths)
        oracles[1].minimum_tree(lengths)
        oracles[1].minimum_tree(lengths)
        assert [oracle.call_count for oracle in oracles] == [1, 2]
