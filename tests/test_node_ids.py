"""Node ids are integers wherever they enter; a float is refused, not truncated.

``int()`` turned 1.5 into node 1, so a session, a spec, a route lookup
or a Dijkstra source given a non-integral id silently used another
node.  Every entry point takes ids through ``operator.index`` (Python
and NumPy integers) and names the refused value.
"""

import numpy as np
import pytest

from repro.api import ArrivalSpec, SessionSpec, WorkloadSpec
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.overlay.tree_packing import (
    crossing_weight,
    enumerate_spanning_trees,
    pack_spanning_trees_greedy,
    pack_spanning_trees_lp,
    partition_bound,
    prufer_to_tree,
)
from repro.routing.base import member_pairs, pair_key
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.routing.paths import UnicastPath
from repro.routing.shortest_path import ShortestPathQuery, shortest_path_tree
from repro.topology.network import PhysicalNetwork
from repro.util.errors import (
    ConfigurationError,
    InvalidNetworkError,
    InvalidSessionError,
)

TRIANGLE_WEIGHTS = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}


class TestSessions:
    def test_float_members_are_refused(self):
        with pytest.raises(InvalidSessionError, match="1.5"):
            Session((1.5, 2.7))

    def test_float_source_is_refused(self):
        with pytest.raises(InvalidSessionError, match="1.0"):
            Session((1, 2), source=1.0)

    def test_spec_float_members_are_refused(self):
        with pytest.raises(InvalidSessionError, match="4.9"):
            SessionSpec(members=(4.9, 5.2))

    def test_spec_float_source_is_refused(self):
        with pytest.raises(InvalidSessionError, match="5.5"):
            SessionSpec(members=(4, 5), source=5.5)

    def test_numpy_integers_become_python_ints(self):
        session = Session((np.int64(1), np.int32(2)), source=np.int16(2))
        assert session.members == (1, 2) and session.source == 2
        assert all(type(m) is int for m in session.members)
        assert type(session.source) is int
        spec = SessionSpec(members=(np.int64(4), 5), source=np.int64(5))
        assert spec.members == (4, 5) and type(spec.members[0]) is int
        assert type(spec.source) is int


class TestRouting:
    def test_pair_key_refuses_floats(self):
        with pytest.raises(InvalidNetworkError, match="1.5"):
            pair_key(1.5, 3)
        with pytest.raises(InvalidNetworkError, match="3.2"):
            member_pairs([1, 3.2])
        assert pair_key(np.int64(3), 1) == (1, 3)

    def test_fixed_routes_refuse_float_pairs(self, diamond_network):
        with pytest.raises(InvalidNetworkError, match="1.5"):
            FixedIPRouting(diamond_network).paths_for_pairs([(1.5, 3.2)])

    def test_dynamic_routes_refuse_float_pairs(self, diamond_network):
        with pytest.raises(InvalidNetworkError, match="1.5"):
            DynamicRouting(diamond_network).paths_for_pairs([(1.5, 3)])

    def test_paths_from_nodes_refuse_floats(self):
        # int() built the path 0 -> 1 -> 2; stored reports load through here.
        network = PhysicalNetwork(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidNetworkError, match="1.5"):
            UnicastPath.from_nodes(network, [0, 1.5, 2.7])

    def test_dijkstra_refuses_float_sources(self, diamond_network):
        with pytest.raises(InvalidNetworkError, match="1.7"):
            shortest_path_tree(diamond_network, [1.7])

    def test_dijkstra_takes_numpy_sources_and_checks_their_range(self, diamond_network):
        distances, _ = shortest_path_tree(diamond_network, np.array([0, 3]))
        assert distances.shape == (2, diamond_network.num_nodes)
        with pytest.raises(InvalidNetworkError, match="node range"):
            shortest_path_tree(diamond_network, [0, diamond_network.num_nodes])
        with pytest.raises(InvalidNetworkError, match="node range"):
            shortest_path_tree(diamond_network, [-1])

    def test_query_rows_refuse_floats(self, diamond_network):
        query = ShortestPathQuery.run(diamond_network, [0, 1])
        with pytest.raises(InvalidNetworkError, match="1.5"):
            query.row_index(1.5)
        with pytest.raises(InvalidNetworkError, match="1.5"):
            query.pair_distances([0, 1.5])


class TestNetwork:
    def test_float_edge_endpoints_are_refused(self):
        # int() built edges (0, 1) and (1, 2) from these.
        with pytest.raises(InvalidNetworkError, match="0.5"):
            PhysicalNetwork(3, [(0.5, 1.7), (1, 2.9)])

    def test_edge_lookups_refuse_floats(self, diamond_network):
        # int() answered edge (0, 1) for both.
        with pytest.raises(InvalidNetworkError, match="1.9"):
            diamond_network.edge_id(0, 1.9)
        with pytest.raises(InvalidNetworkError, match="1.9"):
            diamond_network.has_edge(0, 1.9)

    def test_neighbor_lookups_refuse_floats(self, diamond_network):
        # Both raised a bare TypeError from the adjacency list.
        with pytest.raises(InvalidNetworkError, match="1.5"):
            diamond_network.neighbors(1.5)
        with pytest.raises(InvalidNetworkError, match="1.5"):
            diamond_network.degree(1.5)

    def test_numpy_endpoints_and_lookups_pass(self, diamond_network):
        network = PhysicalNetwork(3, [(np.int64(0), np.int32(1)), (1, np.int64(2))])
        assert list(network.edges()) == [(0, 1), (1, 2)]
        assert diamond_network.edge_id(np.int64(1), 0) == 0
        assert diamond_network.has_edge(np.int32(3), np.int64(2))


class TestOverlayTrees:
    def test_float_tree_members_are_refused(self, path_network):
        paths = FixedIPRouting(path_network).paths_for_pairs([(0, 1)])
        with pytest.raises(InvalidSessionError, match="1.5"):
            OverlayTree.from_paths([0, 1.5], [(0, 1)], paths, path_network.num_edges)

    def test_numpy_tree_members_become_python_ints(self, path_network):
        paths = FixedIPRouting(path_network).paths_for_pairs([(0, 1)])
        tree = OverlayTree.from_paths(
            [np.int64(0), np.int32(1)], [(0, 1)], paths, path_network.num_edges
        )
        assert tree.members == (0, 1) and all(type(m) is int for m in tree.members)

    def test_max_route_hops_refuses_floats(self, path_network):
        # int() measured the route 0 -> 3 instead.
        routing = FixedIPRouting(path_network)
        with pytest.raises(InvalidNetworkError, match="3.5"):
            routing.max_route_hops([0, 3.5])
        assert routing.max_route_hops(np.array([0, 3])) == 3


class TestTreePacking:
    def test_float_members_are_refused(self):
        # int() enumerated the trees over nodes 0, 1, 2.
        with pytest.raises(InvalidSessionError, match="1.5"):
            enumerate_spanning_trees([0, 1.5, 2.7])

    def test_packing_refuses_float_members(self):
        # int() solved the packing over node 2.
        for pack in (pack_spanning_trees_lp, pack_spanning_trees_greedy):
            with pytest.raises(InvalidSessionError, match="2.5"):
                pack([0, 1, 2.5], TRIANGLE_WEIGHTS)

    def test_float_weight_keys_are_refused(self):
        # int() read the key as pair (0, 1).
        with pytest.raises(InvalidSessionError, match="1.5"):
            partition_bound([0, 1], {(0, 1.5): 1.0})

    def test_float_pruefer_entries_are_refused(self):
        with pytest.raises(InvalidSessionError, match="1.5"):
            prufer_to_tree([1.5], [0, 1, 2])

    def test_float_partition_blocks_are_refused(self):
        # int() put node 1 in the first block.
        with pytest.raises(InvalidSessionError, match="1.5"):
            crossing_weight([[0, 1.5], [2]], {(0, 2): 1.0, (1, 2): 2.0})

    @pytest.mark.parametrize(
        "key, named",
        [((1.5, 2), "1.5"), ((7, 2), r"\(7, 2\)")],
        ids=["float", "non-member"],
    )
    def test_weight_keys_outside_the_partition_are_refused(self, key, named):
        # Both keys were counted as crossing: the sum read 3.0.
        with pytest.raises(InvalidSessionError, match=named):
            crossing_weight([[0, 1], [2]], {(0, 2): 1.0, key: 2.0})

    def test_numpy_ids_give_the_int_answers(self):
        members = np.array([0, 1, 2])
        weights = {(np.int64(u), np.int32(v)): w for (u, v), w in TRIANGLE_WEIGHTS.items()}
        assert enumerate_spanning_trees(members) == enumerate_spanning_trees([0, 1, 2])
        for pack in (pack_spanning_trees_lp, pack_spanning_trees_greedy):
            assert pack(members, weights) == pack([0, 1, 2], TRIANGLE_WEIGHTS)
        assert partition_bound(members, weights) == partition_bound([0, 1, 2], TRIANGLE_WEIGHTS)


class TestSpecCounts:
    """Spec counts are integers too: ``int()`` truncated them, and the
    truncated spec took the integer spec's canonical key."""

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda: ArrivalSpec(replication=2.7), "replication.*2.7"),
            (lambda: ArrivalSpec(order=(1.9, 0.2, 2.5, 3.1, 4.0, 5.0)), "order.*1.9"),
            (lambda: ArrivalSpec(order=(0.0, 1)), "order.*0.0"),
            (lambda: WorkloadSpec(sizes=(3.7, 2.2)), "sizes.*3.7"),
        ],
        ids=["replication", "order", "integral-order", "sizes"],
    )
    def test_float_counts_are_refused(self, build, named):
        with pytest.raises(ConfigurationError, match=named):
            build()

    def test_numpy_counts_become_python_ints(self):
        arrivals = ArrivalSpec(replication=np.int64(2), order=tuple(np.arange(4)))
        assert arrivals.replication == 2 and type(arrivals.replication) is int
        assert all(type(i) is int for i in arrivals.order)
        plain = ArrivalSpec(replication=2, order=(0, 1, 2, 3))
        assert arrivals.canonical_key == plain.canonical_key
        workload = WorkloadSpec(sizes=(np.int32(3), np.int64(2)), seed=5)
        assert workload.sizes == (3, 2) and all(type(s) is int for s in workload.sizes)
