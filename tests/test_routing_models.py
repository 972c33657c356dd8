"""Tests for FixedIPRouting and DynamicRouting."""

import numpy as np
import pytest

from repro.routing.base import member_pairs, pair_key
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.routing.shortest_path import ShortestPathQuery
from repro.topology.generators import grid_topology
from repro.topology.network import PhysicalNetwork
from repro.util.errors import InfeasibleProblemError, InvalidNetworkError

from tests.test_engine_equivalence import reference_paths


def assert_routes_match_reference(routes, reference):
    assert set(routes) == set(reference)
    for key, path in reference.items():
        assert routes[key].nodes == path.nodes
        assert np.array_equal(routes[key].edge_ids, path.edge_ids)


class TestPairKey:
    def test_canonical_ordering(self):
        assert pair_key(5, 2) == (2, 5)
        assert pair_key(2, 5) == (2, 5)


class TestFixedIPRouting:
    def test_routes_are_shortest_by_hops(self, diamond_network):
        routing = FixedIPRouting(diamond_network)
        paths = routing.paths_for_pairs([(0, 3)])
        assert paths[(0, 3)].hop_count == 2

    def test_routes_are_cached(self, diamond_network, monkeypatch):
        routing = FixedIPRouting(diamond_network)
        first = routing.paths_for_pairs([(0, 3), (0, 2)])
        runs = []
        original = ShortestPathQuery.run.__func__
        monkeypatch.setattr(
            ShortestPathQuery,
            "run",
            classmethod(lambda cls, *a, **k: runs.append(a) or original(cls, *a, **k)),
        )
        again = routing.paths_for_pairs([(3, 0), (0, 2)])
        assert runs == []  # no Dijkstra: both routes come from the cache
        assert again[(0, 3)] is first[(0, 3)]
        assert again[(0, 2)] is first[(0, 2)]

    def test_routes_ignore_length_function(self, diamond_network):
        routing = FixedIPRouting(diamond_network)
        before = routing.paths_for_pairs([(0, 3)])[(0, 3)]
        weights = np.full(diamond_network.num_edges, 100.0)
        after = routing.paths_for_pairs([(0, 3)], weights)[(0, 3)]
        assert before.nodes == after.nodes

    def test_same_node_pair(self, diamond_network):
        routing = FixedIPRouting(diamond_network)
        path = routing.paths_for_pairs([(2, 2)])[(2, 2)]
        assert path.hop_count == 0

    def test_is_not_dynamic(self, diamond_network):
        assert not FixedIPRouting(diamond_network).is_dynamic

    def test_member_pairs_order(self):
        pairs = member_pairs([3, 1, 2])
        assert pairs == [(1, 3), (2, 3), (1, 2)]

    def test_incidence_matrix_matches_paths(self, diamond_network):
        routing = FixedIPRouting(diamond_network)
        members = [0, 1, 3]
        incidence = routing.incidence_for_members(members)
        pairs = member_pairs(members)
        paths = routing.paths_for_pairs(pairs)
        assert incidence.shape == (3, diamond_network.num_edges)
        for row, pk in enumerate(pairs):
            dense = incidence.getrow(row).toarray().ravel()
            assert dense.sum() == paths[pk].hop_count
            assert np.all(dense[paths[pk].edge_ids] == 1.0)

    def test_pair_lengths_symmetric(self, diamond_network):
        routing = FixedIPRouting(diamond_network)
        ones = np.ones(diamond_network.num_edges)
        lengths = routing.pair_lengths([0, 1, 3], ones)
        # One length per pair of member_pairs: (0, 1), (0, 3), (1, 3).
        assert lengths.shape == (3,)
        assert lengths[1] == pytest.approx(2.0)  # 0 -> 3 is two hops
        # The reversed member order lists the same pairs reversed.
        assert np.array_equal(routing.pair_lengths([3, 1, 0], ones)[::-1], lengths)

    def test_pair_lengths_single_member(self, diamond_network):
        routing = FixedIPRouting(diamond_network)
        assert routing.pair_lengths([0], np.ones(diamond_network.num_edges)).shape == (0,)

    def test_covered_edges(self, diamond_network):
        routing = FixedIPRouting(diamond_network)
        covered = routing.covered_edges([0, 1, 3])
        assert covered.size >= 2

    def test_max_route_hops(self, path_network):
        routing = FixedIPRouting(path_network)
        assert routing.max_route_hops([0, 2, 4]) == 4

    def test_max_route_hops_single_member(self, path_network):
        routing = FixedIPRouting(path_network)
        assert routing.max_route_hops([2]) == 0

    def test_routes_match_per_source_reference(self, waxman_network):
        # The hop-metric paths of one single-source Dijkstra per smaller
        # node, walked outside repro.routing.
        pairs = member_pairs(range(0, 40, 3))
        routes = FixedIPRouting(waxman_network).paths_for_pairs(pairs)
        assert_routes_match_reference(routes, reference_paths(waxman_network, pairs))

    def test_disconnected_members_raise(self):
        net = PhysicalNetwork(4, [(0, 1), (2, 3)])
        routing = FixedIPRouting(net)
        with pytest.raises(InfeasibleProblemError):
            routing.paths_for_pairs([(0, 2)])


class TestDynamicRouting:
    def test_is_dynamic(self, diamond_network):
        assert DynamicRouting(diamond_network).is_dynamic

    def test_paths_follow_length_function(self, diamond_network):
        routing = DynamicRouting(diamond_network)
        uniform = routing.paths_for_pairs([(0, 1)], np.ones(diamond_network.num_edges))
        assert uniform[(0, 1)].hop_count == 1
        weights = np.ones(diamond_network.num_edges)
        weights[diamond_network.edge_id(0, 1)] = 50.0
        rerouted = routing.paths_for_pairs([(0, 1)], weights)
        assert rerouted[(0, 1)].hop_count == 2  # detour via node 2

    def test_default_weights_are_hop_metric(self, diamond_network):
        routing = DynamicRouting(diamond_network)
        paths = routing.paths_for_pairs([(0, 3)])
        assert paths[(0, 3)].hop_count == 2

    def test_pair_lengths_match_dijkstra(self, diamond_network):
        routing = DynamicRouting(diamond_network)
        weights = np.linspace(1.0, 2.0, diamond_network.num_edges)
        lengths = routing.pair_lengths([0, 1, 3], weights)
        assert lengths.shape == (3,)
        direct = weights[diamond_network.edge_id(0, 1)]
        assert lengths[0] <= direct + 1e-12

    def test_same_node_pair(self, diamond_network):
        routing = DynamicRouting(diamond_network)
        path = routing.paths_for_pairs([(1, 1)], np.ones(diamond_network.num_edges))[(1, 1)]
        assert path.hop_count == 0

    def test_covered_edges(self, diamond_network):
        routing = DynamicRouting(diamond_network)
        covered = routing.covered_edges([0, 1, 3])
        assert covered.size >= 2

    def test_routes_match_per_source_reference(self, waxman_network):
        pairs = member_pairs(range(1, 40, 3))
        lengths = np.random.default_rng(13).uniform(0.01, 5.0, waxman_network.num_edges)
        routes = DynamicRouting(waxman_network).paths_for_pairs(pairs, lengths)
        assert_routes_match_reference(
            routes, reference_paths(waxman_network, pairs, lengths)
        )

    def test_disconnected_members_raise(self):
        net = PhysicalNetwork(4, [(0, 1), (2, 3)])
        routing = DynamicRouting(net)
        with pytest.raises(InfeasibleProblemError):
            routing.paths_for_pairs([(1, 2)], np.ones(net.num_edges))

    def test_agrees_with_ip_routing_on_hop_metric(self, waxman_network):
        ip = FixedIPRouting(waxman_network)
        dyn = DynamicRouting(waxman_network)
        members = [0, 5, 11, 17]
        ones = np.ones(waxman_network.num_edges)
        assert np.allclose(ip.pair_lengths(members, ones), dyn.pair_lengths(members, ones))

    def test_nan_length_rejected(self):
        # SciPy drops a NaN edge from its search: on a 3x3 grid with NaN
        # on edge 0 (nodes 0-1), node 1 was reached by the 3-hop path
        # 0-3-4-1 as if the edge were missing.
        network = grid_topology(3, 3, capacity=10.0)
        lengths = np.ones(network.num_edges)
        lengths[0] = np.nan
        routing = DynamicRouting(network)
        with pytest.raises(InvalidNetworkError, match="NaN"):
            routing.pair_lengths([0, 1, 4], lengths)
        with pytest.raises(InvalidNetworkError, match="NaN"):
            routing.paths_for_pairs([(0, 1)], lengths)

    def test_pair_lengths_symmetrised_with_max(self, diamond_network, monkeypatch):
        # Regression: the symmetrisation must take the elementwise max of
        # the two directions (as documented), not their average.  Feed an
        # artificially asymmetric distance matrix to pin the behaviour;
        # pair r of the condensed result takes the max over both directions.
        members = [0, 1, 3]
        num_nodes = diamond_network.num_nodes

        def fake_shortest_path_tree(network, sources, edge_lengths):
            distances = np.arange(
                len(sources) * num_nodes, dtype=float
            ).reshape(len(sources), num_nodes)
            return distances, None

        monkeypatch.setattr(
            "repro.routing.shortest_path.shortest_path_tree", fake_shortest_path_tree
        )
        routing = DynamicRouting(diamond_network)
        result = routing.pair_lengths(members, np.ones(diamond_network.num_edges))

        sub = np.arange(len(members) * num_nodes, dtype=float).reshape(
            len(members), num_nodes
        )[:, members]
        expected = np.maximum(sub, sub.T)[np.triu_indices(len(members), k=1)]
        assert np.array_equal(result, expected)
