"""Tests for repro.overlay.tree and repro.overlay.mst."""

import numpy as np
import pytest

from repro.overlay.mst import minimum_spanning_tree_pairs
from repro.overlay.tree import OverlayTree
from repro.routing.base import pair_key
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.routing.paths import UnicastPath
from repro.topology.generators import grid_topology
from repro.util.errors import InvalidSessionError


def _build_tree(network, members, overlay_edges):
    routing = FixedIPRouting(network)
    paths = routing.paths_for_pairs(overlay_edges)
    return OverlayTree.from_paths(members, overlay_edges, paths, network.num_edges)


class TestOverlayTree:
    def test_from_paths_usage_counts(self, diamond_network):
        tree = _build_tree(diamond_network, [0, 1, 3], [(0, 1), (1, 3)])
        assert tree.size == 3
        assert tree.num_receivers == 2
        assert tree.usage_of(diamond_network.edge_id(0, 1)) == 1.0
        assert tree.usage_of(diamond_network.edge_id(1, 3)) == 1.0
        assert tree.total_physical_hops() == 2.0

    def test_shared_physical_edge_counts_twice(self, path_network):
        # Members 0, 2, 4 on a path; overlay edges (0,4) and (2,4) both use
        # links 2-3 and 3-4, so their usage must be 2.
        tree = _build_tree(path_network, [0, 2, 4], [(0, 4), (2, 4)])
        assert tree.usage_of(path_network.edge_id(2, 3)) == 2.0
        assert tree.usage_of(path_network.edge_id(3, 4)) == 2.0
        assert tree.usage_of(path_network.edge_id(0, 1)) == 1.0

    def test_non_spanning_edge_set_rejected(self, diamond_network):
        routing = FixedIPRouting(diamond_network)
        paths = routing.paths_for_pairs([(0, 1), (0, 1)])
        with pytest.raises(InvalidSessionError):
            OverlayTree.from_paths([0, 1, 3], [(0, 1)], paths, diamond_network.num_edges)

    def test_cycle_rejected(self, diamond_network):
        routing = FixedIPRouting(diamond_network)
        pairs = [(0, 1), (1, 2), (0, 2)]
        paths = routing.paths_for_pairs(pairs)
        with pytest.raises(InvalidSessionError):
            OverlayTree.from_paths([0, 1, 2], pairs, paths, diamond_network.num_edges)

    def test_missing_path_rejected(self, diamond_network):
        with pytest.raises(InvalidSessionError):
            OverlayTree(
                members=(0, 1, 3),
                overlay_edges=((0, 1), (1, 3)),
                paths={},
                edge_usage=np.zeros(diamond_network.num_edges),
            )

    def test_length_under_weights(self, path_network):
        tree = _build_tree(path_network, [0, 2, 4], [(0, 2), (2, 4)])
        weights = np.arange(1.0, path_network.num_edges + 1)
        assert tree.length(weights) == pytest.approx(float(weights.sum()))

    def test_bottleneck_capacity(self, path_network):
        tree = _build_tree(path_network, [0, 2, 4], [(0, 4), (2, 4)])
        # Links 2-3 and 3-4 are used twice -> bottleneck is capacity/2.
        assert tree.bottleneck_capacity(path_network.capacities) == pytest.approx(4.0)

    def test_canonical_key_equality(self, diamond_network):
        t1 = _build_tree(diamond_network, [0, 1, 3], [(0, 1), (1, 3)])
        t2 = _build_tree(diamond_network, [0, 1, 3], [(1, 3), (0, 1)])
        t3 = _build_tree(diamond_network, [0, 1, 3], [(0, 1), (0, 3)])
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert t1 != t3

    def test_physical_edges_listing(self, diamond_network):
        tree = _build_tree(diamond_network, [0, 1, 2], [(0, 1), (0, 2)])
        assert set(tree.physical_edges.tolist()) == {
            diamond_network.edge_id(0, 1),
            diamond_network.edge_id(0, 2),
        }


def reference_from_paths(overlay_edges, paths, num_edges):
    """``OverlayTree.from_paths`` before the single ``bincount``: one
    ``np.add.at`` per overlay path, and the canonical key built entry by
    entry.  Returns ``(edge_usage, physical_edges, usage_values, key)``."""
    usage = np.zeros(num_edges, dtype=float)
    canonical = [pair_key(*p) for p in overlay_edges]
    for pk in canonical:
        np.add.at(usage, paths[pk].edge_ids, 1.0)
    physical = np.flatnonzero(usage > 0)
    key = (
        tuple(sorted(canonical)),
        tuple((int(e), float(usage[e])) for e in physical),
    )
    return usage, physical, usage[physical], key


def assert_matches_reference(tree, overlay_edges, paths, num_edges):
    usage, physical, values, key = reference_from_paths(overlay_edges, paths, num_edges)
    for got, want in (
        (tree.edge_usage, usage),
        (tree.physical_edges, physical),
        (tree.usage_values, values),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert tree.canonical_key() == key
    assert [type(x) for pair in key[1] for x in pair] == [
        type(x) for pair in tree.canonical_key()[1] for x in pair
    ]
    assert hash(tree) == hash(key)


class TestFromPathsMatchesReference:
    def test_edge_shared_by_two_overlay_paths(self, path_network):
        routing = FixedIPRouting(path_network)
        edges = [(0, 4), (2, 4)]
        paths = routing.paths_for_pairs(edges)
        tree = OverlayTree.from_paths([0, 2, 4], edges, paths, path_network.num_edges)
        assert tree.usage_of(path_network.edge_id(3, 4)) == 2.0
        assert_matches_reference(tree, edges, paths, path_network.num_edges)

    @pytest.mark.parametrize("routing_cls", [FixedIPRouting, DynamicRouting])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_trees(self, routing_cls, seed):
        network = grid_topology(5, 5, capacity=10.0)
        routing = routing_cls(network)
        rng = np.random.default_rng(seed)
        lengths = rng.uniform(0.5, 2.0, network.num_edges)
        for size in (2, 3, 5, 8):
            members = sorted(rng.choice(network.num_nodes, size, replace=False).tolist())
            weights = rng.uniform(1.0, 2.0, (size, size))
            weights = weights + weights.T
            edges = [
                pair_key(members[i], members[j])
                for i, j in minimum_spanning_tree_pairs(weights)
            ]
            paths = routing.paths_for_pairs(edges, lengths)
            tree = OverlayTree.from_paths(members, edges, paths, network.num_edges)
            assert_matches_reference(tree, edges, paths, network.num_edges)

    @pytest.mark.parametrize("bad", [-1, "num_edges"])
    def test_out_of_range_edge_id_raises(self, path_network, bad):
        num_edges = path_network.num_edges
        bad_id = num_edges if bad == "num_edges" else bad
        paths = {
            (0, 1): UnicastPath(nodes=(0, 1), edge_ids=np.array([0])),
            (1, 2): UnicastPath(nodes=(1, 2), edge_ids=np.array([bad_id])),
        }
        with pytest.raises(InvalidSessionError, match="outside"):
            OverlayTree.from_paths([0, 1, 2], [(0, 1), (1, 2)], paths, num_edges)


class TestMinimumSpanningTreePairs:
    def test_simple_triangle(self):
        w = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 2.0], [5.0, 2.0, 0.0]])
        edges = minimum_spanning_tree_pairs(w)
        assert sorted(edges) == [(0, 1), (1, 2)]

    def test_single_node(self):
        assert minimum_spanning_tree_pairs(np.zeros((1, 1))) == []

    def test_two_nodes(self):
        assert minimum_spanning_tree_pairs(np.array([[0.0, 3.0], [3.0, 0.0]])) == [(0, 1)]

    def test_zero_weights_allowed(self):
        w = np.zeros((4, 4))
        edges = minimum_spanning_tree_pairs(w)
        assert len(edges) == 3

    def test_total_weight_is_minimal(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = 6
            sym = rng.uniform(1, 10, size=(n, n))
            w = (sym + sym.T) / 2
            np.fill_diagonal(w, 0.0)
            edges = minimum_spanning_tree_pairs(w)
            total = sum(w[i, j] for i, j in edges)
            # Compare against networkx's MST as an oracle.
            import networkx as nx

            g = nx.Graph()
            for i in range(n):
                for j in range(i + 1, n):
                    g.add_edge(i, j, weight=w[i, j])
            expected = sum(
                d["weight"] for _, _, d in nx.minimum_spanning_edges(g, data=True)
            )
            assert total == pytest.approx(expected)

    def test_disconnected_inf_weights_rejected(self):
        w = np.full((3, 3), np.inf)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(InvalidSessionError):
            minimum_spanning_tree_pairs(w)

    def test_asymmetric_matrix_rejected(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidSessionError):
            minimum_spanning_tree_pairs(w)

    def test_negative_weights_rejected(self):
        w = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidSessionError):
            minimum_spanning_tree_pairs(w)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidSessionError):
            minimum_spanning_tree_pairs(np.zeros((2, 3)))
