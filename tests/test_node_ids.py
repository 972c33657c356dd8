"""Node ids are integers wherever they enter; a float is refused, not truncated.

``int()`` turned 1.5 into node 1, so a session, a spec, a route lookup
or a Dijkstra source given a non-integral id silently used another
node.  Every entry point takes ids through ``operator.index`` (Python
and NumPy integers) and names the refused value.
"""

import numpy as np
import pytest

from repro.api import SessionSpec
from repro.overlay.session import Session
from repro.routing.base import member_pairs, pair_key
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.routing.shortest_path import ShortestPathQuery, shortest_path_tree
from repro.util.errors import InvalidNetworkError, InvalidSessionError


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
