"""Tests for repro.topology.network.PhysicalNetwork."""

import numpy as np
import pytest

from repro.topology.network import PhysicalNetwork
from repro.util.errors import InvalidNetworkError


class TestConstruction:
    def test_basic_properties(self, diamond_network):
        assert diamond_network.num_nodes == 4
        assert diamond_network.num_edges == 5
        assert diamond_network.is_connected()

    def test_capacities_recorded(self, diamond_network):
        assert np.allclose(diamond_network.capacities, 10.0)

    def test_default_capacity_applied(self):
        net = PhysicalNetwork(2, [(0, 1)], default_capacity=7.0)
        assert net.capacity(0, 1) == 7.0

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidNetworkError):
            PhysicalNetwork(2, [(0, 0, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidNetworkError):
            PhysicalNetwork(3, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_out_of_range_node(self):
        with pytest.raises(InvalidNetworkError):
            PhysicalNetwork(2, [(0, 5, 1.0)])

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(InvalidNetworkError):
            PhysicalNetwork(2, [(0, 1, 0.0)])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_capacity(self, value):
        with pytest.raises(InvalidNetworkError, match=f"got {value}"):
            PhysicalNetwork(2, [(0, 1, value)])
        with pytest.raises(InvalidNetworkError, match=f"got {value}"):
            PhysicalNetwork(2, [(0, 1)], default_capacity=value)

    def test_rejects_empty_edge_set(self):
        with pytest.raises(InvalidNetworkError):
            PhysicalNetwork(3, [])

    def test_rejects_zero_nodes(self):
        with pytest.raises(InvalidNetworkError):
            PhysicalNetwork(0, [(0, 1)])

    def test_rejects_bad_edge_tuple(self):
        with pytest.raises(InvalidNetworkError):
            PhysicalNetwork(2, [(0,)])

    def test_node_positions_shape_checked(self):
        with pytest.raises(InvalidNetworkError):
            PhysicalNetwork(2, [(0, 1)], node_positions=np.zeros((3, 2)))

    def test_node_levels_shape_checked(self):
        with pytest.raises(InvalidNetworkError):
            PhysicalNetwork(2, [(0, 1)], node_levels=[0, 1, 2])


class TestAccessors:
    def test_edge_id_symmetric(self, diamond_network):
        assert diamond_network.edge_id(0, 1) == diamond_network.edge_id(1, 0)

    def test_edge_id_missing_raises(self, diamond_network):
        with pytest.raises(InvalidNetworkError):
            diamond_network.edge_id(0, 3)

    def test_has_edge(self, diamond_network):
        assert diamond_network.has_edge(1, 2)
        assert not diamond_network.has_edge(0, 3)

    def test_neighbors_and_degree(self, diamond_network):
        neighbors = {v for v, _ in diamond_network.neighbors(1)}
        assert neighbors == {0, 2, 3}
        assert diamond_network.degree(1) == 3

    def test_neighbors_out_of_range(self, diamond_network):
        with pytest.raises(InvalidNetworkError):
            diamond_network.neighbors(9)

    def test_degrees_vector(self, diamond_network):
        degrees = diamond_network.degrees()
        assert degrees.sum() == 2 * diamond_network.num_edges

    def test_edges_iteration_sorted_endpoints(self, diamond_network):
        for u, v in diamond_network.edges():
            assert u < v

    def test_capacity_lookup(self, diamond_network):
        assert diamond_network.capacity(2, 3) == 10.0


class TestStructure:
    def test_disconnected_graph_detected(self):
        net = PhysicalNetwork(4, [(0, 1), (2, 3)])
        assert not net.is_connected()

    def test_validate_passes(self, diamond_network):
        diamond_network.validate()


class TestConversions:
    def test_adjacency_matrix_symmetric(self, diamond_network):
        m = diamond_network.adjacency_matrix().toarray()
        assert np.allclose(m, m.T)
        assert m[0, 1] == 1.0 and m[0, 3] == 0.0

    def test_adjacency_matrix_with_weights(self, diamond_network):
        w = np.arange(1, diamond_network.num_edges + 1, dtype=float)
        m = diamond_network.adjacency_matrix(w).toarray()
        eid = diamond_network.edge_id(0, 1)
        assert m[0, 1] == w[eid]

    def test_adjacency_matrix_bad_weights(self, diamond_network):
        with pytest.raises(InvalidNetworkError):
            diamond_network.adjacency_matrix(np.ones(3))

    def test_networkx_roundtrip(self, diamond_network):
        g = diamond_network.to_networkx()
        assert g.number_of_nodes() == 4
        back = PhysicalNetwork.from_networkx(g)
        assert back == diamond_network

    def test_with_capacities(self, diamond_network):
        caps = np.linspace(1, 5, diamond_network.num_edges)
        net2 = diamond_network.with_capacities(caps)
        assert np.allclose(net2.capacities, caps)
        assert net2.num_edges == diamond_network.num_edges

    def test_with_capacities_wrong_shape(self, diamond_network):
        with pytest.raises(InvalidNetworkError):
            diamond_network.with_capacities([1.0, 2.0])

    def test_equality_and_hash(self, diamond_network):
        edges = [(0, 1, 10.0), (1, 3, 10.0), (0, 2, 10.0), (2, 3, 10.0), (1, 2, 10.0)]
        other = PhysicalNetwork(4, edges)
        assert other == diamond_network
        assert hash(other) == hash(diamond_network)
        assert diamond_network != PhysicalNetwork(4, edges[:-1])
