"""Tests for repro.routing.paths and repro.routing.shortest_path."""

import sys
import threading

import numpy as np
import pytest

from repro.api import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.api.service import build_instance, solve_instance
from repro.routing.paths import UnicastPath
from repro.routing.shortest_path import ShortestPathQuery, shortest_path_tree
from repro.topology.network import PhysicalNetwork
from repro.util.errors import InfeasibleProblemError, InvalidNetworkError


class TestUnicastPath:
    def test_from_nodes(self, diamond_network):
        path = UnicastPath.from_nodes(diamond_network, [0, 1, 3])
        assert path.source == 0
        assert path.destination == 3
        assert path.hop_count == 2
        path.validate(diamond_network)

    def test_length_and_bottleneck(self, diamond_network):
        path = UnicastPath.from_nodes(diamond_network, [0, 1, 3])
        weights = np.arange(1.0, diamond_network.num_edges + 1)
        expected = weights[diamond_network.edge_id(0, 1)] + weights[diamond_network.edge_id(1, 3)]
        assert path.length(weights) == pytest.approx(expected)
        assert path.bottleneck_capacity(diamond_network.capacities) == 10.0

    def test_trivial_path(self, diamond_network):
        path = UnicastPath(nodes=(2,), edge_ids=np.empty(0, dtype=np.int64))
        assert path.hop_count == 0
        assert path.length(diamond_network.capacities) == 0.0
        assert path.bottleneck_capacity(diamond_network.capacities) == float("inf")

    def test_edge_count_mismatch_rejected(self):
        with pytest.raises(InvalidNetworkError):
            UnicastPath(nodes=(0, 1, 2), edge_ids=np.array([0], dtype=np.int64))

    def test_validate_detects_wrong_edge_index(self, diamond_network):
        path = UnicastPath(nodes=(0, 1), edge_ids=np.array([diamond_network.edge_id(2, 3)]))
        with pytest.raises(InvalidNetworkError):
            path.validate(diamond_network)

    def test_validate_detects_missing_edge(self, diamond_network):
        path = UnicastPath(nodes=(0, 3), edge_ids=np.array([0]))
        with pytest.raises(InvalidNetworkError):
            path.validate(diamond_network)

    def test_validate_detects_repeated_node(self, triangle_network):
        path = UnicastPath(
            nodes=(0, 1, 0),
            edge_ids=np.array(
                [triangle_network.edge_id(0, 1), triangle_network.edge_id(0, 1)]
            ),
        )
        with pytest.raises(InvalidNetworkError):
            path.validate(triangle_network)

    def test_len(self, diamond_network):
        path = UnicastPath.from_nodes(diamond_network, [0, 2, 3])
        assert len(path) == 3


class TestShortestPathTree:
    def test_hop_metric_distances(self, path_network):
        distances, _ = shortest_path_tree(path_network, [0])
        assert distances[0, 4] == pytest.approx(4.0)

    def test_weighted_distances(self, diamond_network):
        weights = np.ones(diamond_network.num_edges)
        weights[diamond_network.edge_id(0, 1)] = 10.0
        distances, _ = shortest_path_tree(diamond_network, [0], weights)
        # 0->1 now cheaper via 0-2-1 (cost 2) than direct (cost 10).
        assert distances[0, 1] == pytest.approx(2.0)

    def test_multiple_sources(self, path_network):
        distances, _ = shortest_path_tree(path_network, [0, 4])
        assert distances.shape == (2, 5)
        assert distances[1, 0] == pytest.approx(4.0)

    def test_empty_sources(self, path_network):
        distances, predecessors = shortest_path_tree(path_network, [])
        assert distances.shape == (0, 5)
        assert predecessors.shape == (0, 5)

    def test_zero_weights_clamped(self, diamond_network):
        weights = np.zeros(diamond_network.num_edges)
        distances, _ = shortest_path_tree(diamond_network, [0], weights)
        assert np.all(np.isfinite(distances))

    def test_zero_weight_edge_routes_at_tiny_length(self, path_network):
        weights = np.ones(path_network.num_edges)
        edge = path_network.edge_id(1, 2)
        weights[edge] = 0.0
        distances, predecessors = shortest_path_tree(path_network, [1], weights)
        tiny = np.finfo(float).tiny
        assert distances[0, 2] == tiny and predecessors[0, 2] == 1
        assert distances[0, 4] == tiny + 1.0 + 1.0
        # The clamp works on a copy; the caller's vector is untouched.
        assert weights[edge] == 0.0

    def test_bad_source_rejected(self, diamond_network):
        for source in (99, diamond_network.num_nodes, -1):
            with pytest.raises(InvalidNetworkError, match="node range"):
                shortest_path_tree(diamond_network, [0, source])

    def test_negative_weights_rejected(self, diamond_network):
        with pytest.raises(InvalidNetworkError):
            shortest_path_tree(diamond_network, [0], -np.ones(diamond_network.num_edges))
        one_negative = np.ones(diamond_network.num_edges)
        one_negative[2] = -0.5
        with pytest.raises(InvalidNetworkError, match="non-negative"):
            shortest_path_tree(diamond_network, [0], one_negative)


class TestReconstruction:
    def test_roundtrip(self, grid_network):
        query = ShortestPathQuery.run(grid_network, [0])
        path = query.path(0, 15)
        assert path.source == 0 and path.destination == 15
        assert path.hop_count == query.distances[0, 15]
        path.validate(grid_network)

    def test_source_equals_destination(self, grid_network):
        path = ShortestPathQuery.run(grid_network, [3]).path(3, 3)
        assert path.hop_count == 0

    def test_unreachable_raises(self):
        net = PhysicalNetwork(4, [(0, 1), (2, 3)])
        with pytest.raises(InfeasibleProblemError):
            ShortestPathQuery.run(net, [0]).path(0, 3)

    def test_single_pair_helper(self, diamond_network):
        # One pair asked in either orientation runs from its smaller node.
        query = ShortestPathQuery.run(diamond_network, [0])
        path = query.paths_for_pairs([(3, 0)])[(0, 3)]
        assert path.nodes[0] == 0 and path.hop_count == 2
        path.validate(diamond_network)

    def test_single_pair_unreachable(self):
        net = PhysicalNetwork(4, [(0, 1), (2, 3)])
        with pytest.raises(InfeasibleProblemError):
            ShortestPathQuery.run(net, [0]).paths_for_pairs([(0, 2)])


class TestPairwiseDistances:
    def test_submatrix(self, path_network):
        # The member submatrix's upper triangle: pairs (0, 2), (0, 4), (2, 4).
        d = ShortestPathQuery.run(path_network, [0, 2, 4]).pair_distances([0, 2, 4])
        assert d.shape == (3,)
        assert d.tolist() == [2.0, 4.0, 2.0]


class TestConcurrentDijkstra:
    def test_threads_solving_one_dynamic_instance_match_serial(self):
        # Every solve of a cached instance shares its PhysicalNetwork, and
        # with it the one scratch CSR that each Dijkstra call re-weights
        # in place.  Two threads solving at once must each get exactly
        # the serial answer, with no error from a torn scratch matrix.
        spec = ScenarioSpec(
            topology=TopologySpec("paper_flat", {"num_nodes": 24}, seed=5),
            workload=WorkloadSpec(sizes=(3, 3), seed=6),
            routing="dynamic",
            solver="max_flow",
        )
        _, sessions, routing = build_instance(spec)
        ratios = (0.6, 0.5)

        def solve_at(ratio):
            solution = solve_instance(
                "max_flow", sessions, routing, {"approximation_ratio": ratio}
            )
            return [
                sorted((tf.tree.canonical_key(), tf.flow) for tf in s.tree_flows)
                for s in solution.sessions
            ]

        serial = {ratio: solve_at(ratio) for ratio in ratios}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(4):
                results = {}

                def run(ratio):
                    try:
                        results[ratio] = solve_at(ratio)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        results[ratio] = exc

                threads = [threading.Thread(target=run, args=(r,)) for r in ratios]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert results == serial
        finally:
            sys.setswitchinterval(previous)
