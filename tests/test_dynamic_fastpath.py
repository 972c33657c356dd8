"""Equivalence suite for the dynamic-routing fast path.

The fast path rebuilds the dynamic oracle pipeline in three layers —
cached CSR adjacency structure with in-place weight refresh
(``PhysicalNetwork``), a one-Dijkstra retained query serving both MST
weights and path reconstructions (``ShortestPathQuery`` /
``MinimumOverlayTreeOracle.minimum_tree_from_query``), and a
union-of-members Dijkstra front for all-session query rounds
(``BatchedOracleFront`` dynamic mode).  Its contract is *bit identity*:
every dynamic-routing solver must produce exactly the results of the
plain pipeline — a distances-only Dijkstra, then one single-source
Dijkstra per tree source and a freshly built tree.  That pipeline lives
here as an in-test reference (``FreshTreeOracle`` and the pre-engine
solver loops of ``tests/test_engine_equivalence.py``), so every test
compares live implementations rather than recorded fixtures.
"""

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from repro.core.engine import BatchedOracleFront
from repro.core.maxconcurrent import max_concurrent_flow
from repro.core.maxflow import max_flow
from repro.overlay.oracle import MinimumOverlayTreeOracle, build_oracles
from repro.overlay.session import Session
from repro.routing.dynamic import DynamicRouting
from repro.routing.shortest_path import ShortestPathQuery, shortest_path_tree
from repro.topology.network import PhysicalNetwork
from repro.util.errors import InfeasibleProblemError, InvalidNetworkError

from tests.test_engine_equivalence import (
    FreshTreeOracle,
    fingerprint,
    fresh_oracles,
    online_trail,
    reference_max_concurrent_flow,
    reference_max_flow,
    reference_online_assignments,
)


def scratch_adjacency(network: PhysicalNetwork, weights: np.ndarray):
    """The pre-change from-scratch ``coo_matrix(...).tocsr()`` build."""
    endpoints = network.edge_endpoints
    u, v = endpoints[:, 0], endpoints[:, 1]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    data = np.concatenate([weights, weights])
    return coo_matrix(
        (data, (rows, cols)), shape=(network.num_nodes, network.num_nodes)
    ).tocsr()


class TestCachedCsrStructure:
    def test_adjacency_matrix_matches_scratch_build(self, waxman_network):
        rng = np.random.default_rng(0)
        for _ in range(3):
            w = rng.uniform(0.01, 5.0, waxman_network.num_edges)
            cached = waxman_network.adjacency_matrix(w)
            scratch = scratch_adjacency(waxman_network, w)
            assert np.array_equal(cached.indptr, scratch.indptr)
            assert np.array_equal(cached.indices, scratch.indices)
            assert np.array_equal(cached.data, scratch.data)

    def test_inplace_refresh_matches_scratch_build(self, waxman_network):
        rng = np.random.default_rng(1)
        # Successive refreshes with different weights must each equal a
        # from-scratch build — the satellite's unit criterion.
        for _ in range(4):
            w = rng.uniform(0.01, 5.0, waxman_network.num_edges)
            inplace = waxman_network.csr_adjacency_inplace(w)
            scratch = scratch_adjacency(waxman_network, w)
            assert np.array_equal(inplace.indptr, scratch.indptr)
            assert np.array_equal(inplace.indices, scratch.indices)
            assert np.array_equal(inplace.data, scratch.data)

    def test_inplace_matrix_is_shared_and_refreshed(self, diamond_network):
        first = diamond_network.csr_adjacency_inplace(
            np.full(diamond_network.num_edges, 2.0)
        )
        second = diamond_network.csr_adjacency_inplace(
            np.full(diamond_network.num_edges, 7.0)
        )
        assert first is second
        assert np.all(second.data == 7.0)

    def test_hop_metric_default(self, diamond_network):
        cached = diamond_network.adjacency_matrix()
        scratch = scratch_adjacency(
            diamond_network, np.ones(diamond_network.num_edges)
        )
        assert np.array_equal(cached.toarray(), scratch.toarray())

    def test_adjacency_matrix_returns_independent_copies(self, diamond_network):
        w = np.ones(diamond_network.num_edges)
        one = diamond_network.adjacency_matrix(w)
        one.data[:] = 99.0
        one.indices[0] = one.indices[1]  # deliberately corrupt the copy
        two = diamond_network.adjacency_matrix(w)
        scratch = scratch_adjacency(diamond_network, w)
        assert np.array_equal(two.indices, scratch.indices)
        assert np.array_equal(two.data, scratch.data)

    def test_bad_weight_shape_still_raises(self, diamond_network):
        with pytest.raises(InvalidNetworkError):
            diamond_network.adjacency_matrix(np.ones(3))
        with pytest.raises(InvalidNetworkError):
            diamond_network.csr_adjacency_inplace(np.ones(3))


class TestShortestPathQuery:
    def test_rows_match_per_source_runs(self, waxman_network):
        members = [0, 5, 11, 17, 23]
        w = np.random.default_rng(2).uniform(0.1, 2.0, waxman_network.num_edges)
        query = ShortestPathQuery.run(waxman_network, members, w)
        # The union run's rows must be bit-identical to fresh
        # single-source runs — the property the whole fast path rests on.
        for m in members:
            dist, pred = shortest_path_tree(waxman_network, [m], w)
            row = query.row_index(m)
            assert np.array_equal(query.distances[row], dist[0])
            assert np.array_equal(query.predecessors[row], pred[0])

    def test_paths_match_legacy_paths_for_pairs(self, waxman_network):
        routing = DynamicRouting(waxman_network)
        members = [0, 5, 11, 17]
        pairs = [(0, 5), (11, 5), (17, 0), (11, 17)]
        w = np.random.default_rng(3).uniform(0.1, 2.0, waxman_network.num_edges)
        legacy = routing.paths_for_pairs(pairs, w)
        query = routing.query(members, w)
        fast = query.paths_for_pairs(pairs)
        assert set(fast) == set(legacy)
        for key in legacy:
            assert fast[key].nodes == legacy[key].nodes
            assert np.array_equal(fast[key].edge_ids, legacy[key].edge_ids)

    def test_pair_lengths_from_query_matches_pair_lengths(self, waxman_network):
        routing = DynamicRouting(waxman_network)
        members = [3, 9, 21, 30]
        w = np.random.default_rng(4).uniform(0.1, 2.0, waxman_network.num_edges)
        legacy = routing.pair_lengths(members, w)
        fast = routing.pair_lengths_from_query(routing.query(members, w), members)
        assert np.array_equal(fast, legacy)

    def test_union_query_serves_member_subsets(self, waxman_network):
        routing = DynamicRouting(waxman_network)
        w = np.random.default_rng(5).uniform(0.1, 2.0, waxman_network.num_edges)
        union = sorted({0, 5, 11, 17, 23, 30})
        shared = routing.query(union, w)
        for members in ([0, 5, 11], [23, 5, 30, 17]):
            direct = routing.pair_lengths(members, w)
            sliced = routing.pair_lengths_from_query(shared, members)
            assert np.array_equal(sliced, direct)

    def test_trivial_and_unknown_sources(self, diamond_network):
        query = ShortestPathQuery.run(
            diamond_network, [0, 2], np.ones(diamond_network.num_edges)
        )
        assert query.path(2, 2).hop_count == 0
        with pytest.raises(InvalidNetworkError):
            query.path(1, 3)  # 1 is not a source of this query

    def test_disconnected_destination_raises(self):
        net = PhysicalNetwork(4, [(0, 1), (2, 3)])
        query = ShortestPathQuery.run(net, [0], np.ones(net.num_edges))
        with pytest.raises(InfeasibleProblemError):
            query.path(0, 3)

    def test_path_cache_is_shared_across_queries(self, waxman_network):
        routing = DynamicRouting(waxman_network)
        w = np.ones(waxman_network.num_edges)
        first = routing.query([0, 5], w).path(0, 5)
        again = routing.query([0, 5], w).path(0, 5)
        assert again is first  # same immutable object, served from cache


class TestOneDijkstraOracle:
    @pytest.mark.parametrize("memoize", [True, False], ids=["memoized", "unmemoized"])
    def test_oracle_results_match_legacy(self, waxman_network, memoize):
        # The legacy pipeline is FreshTreeOracle.  Unmemoized clears the
        # oracle's tree cache before every call, so each call builds.
        session = Session((0, 4, 9, 13, 27), demand=100.0, name="s")
        oracle = MinimumOverlayTreeOracle(session, DynamicRouting(waxman_network))
        reference = FreshTreeOracle(session, DynamicRouting(waxman_network))
        rng = np.random.default_rng(6)
        # Cycle the length vectors so the second pass can serve cached trees.
        pool = [rng.uniform(0.01, 5.0, waxman_network.num_edges) for _ in range(4)]
        for w in pool + pool:
            if not memoize:
                oracle.clear_tree_cache()
            fast = oracle.minimum_tree(w)
            fresh = reference.minimum_tree(w)
            assert fast.tree == fresh.tree
            assert fast.length == fresh.length
            assert fast.tree.paths.keys() == fresh.tree.paths.keys()
            for key, path in fresh.tree.paths.items():
                assert fast.tree.paths[key].nodes == path.nodes
        assert oracle.call_count == reference.call_count == 2 * len(pool)
        if memoize:
            assert oracle.cache_hits >= len(pool)
        else:
            assert oracle.cache_hits == 0

    def test_from_query_rejects_fixed_routing(self, waxman_network):
        from repro.routing.ip_routing import FixedIPRouting
        from repro.util.errors import ConfigurationError

        oracle = build_oracles(
            [Session((0, 4), demand=1.0)], FixedIPRouting(waxman_network)
        )[0]
        with pytest.raises(ConfigurationError):
            oracle.minimum_tree_from_query(None, np.ones(waxman_network.num_edges))


@pytest.fixture(scope="module")
def dynamic_sessions():
    return [
        Session((0, 4, 9, 13), demand=100.0, name="s1"),
        Session((2, 7, 20), demand=100.0, name="s2"),
        Session((4, 20, 31, 35), demand=100.0, name="s3"),
    ]


@pytest.mark.parametrize(
    "reference_oracles", [build_oracles, fresh_oracles], ids=["memoized", "unmemoized"]
)
class TestDynamicSolverEquivalence:
    """Bit-identical solver outputs: the engine vs the pre-engine loops,
    run over the cached oracles and over :class:`FreshTreeOracle`."""

    def test_max_flow(self, waxman_network, dynamic_sessions, reference_oracles):
        reference = reference_max_flow(
            dynamic_sessions, DynamicRouting(waxman_network), 0.15, reference_oracles
        )
        fast = max_flow(dynamic_sessions, DynamicRouting(waxman_network), epsilon=0.15)
        assert fingerprint(fast) == fingerprint(reference)

    def test_max_concurrent_flow(
        self, waxman_network, dynamic_sessions, reference_oracles
    ):
        reference = reference_max_concurrent_flow(
            dynamic_sessions,
            DynamicRouting(waxman_network),
            0.25,
            0.25,
            reference_oracles,
        )
        fast = max_concurrent_flow(
            dynamic_sessions,
            DynamicRouting(waxman_network),
            epsilon=0.25,
            prescale_epsilon=0.25,
        )
        assert fingerprint(fast) == fingerprint(reference)

    def test_online_min_congestion(
        self, waxman_network, dynamic_sessions, reference_oracles
    ):
        arrivals = [
            copy
            for session in dynamic_sessions
            for copy in session.replicate(3, demand=1.0)
        ]
        reference_trail = reference_online_assignments(
            arrivals, DynamicRouting(waxman_network), 50.0, reference_oracles
        )
        assert online_trail(arrivals, DynamicRouting(waxman_network), 50.0) == (
            reference_trail
        )


class TestDynamicFrontEquivalence:
    def test_batched_solver_run_matches_loop_run(
        self, waxman_network, dynamic_sessions
    ):
        # Every dynamic MaxFlow round goes through the union-Dijkstra
        # front; the reference loop queries one oracle at a time.
        batched = max_flow(
            dynamic_sessions, DynamicRouting(waxman_network), epsilon=0.15
        )
        looped = reference_max_flow(
            dynamic_sessions, DynamicRouting(waxman_network), epsilon=0.15
        )
        assert fingerprint(batched) == fingerprint(looped)
        assert batched.instrumentation["batched_rounds"] > 0
        assert batched.instrumentation["per_session_rounds"] == 0

    def test_union_round_matches_per_oracle_calls(
        self, waxman_network, dynamic_sessions
    ):
        routing = DynamicRouting(waxman_network)
        oracles = build_oracles(dynamic_sessions, routing)
        front = BatchedOracleFront(oracles)
        assert front.mode == "dynamic"
        rng = np.random.default_rng(8)
        direct_oracles = build_oracles(dynamic_sessions, DynamicRouting(waxman_network))
        for _ in range(4):
            w = rng.uniform(0.01, 5.0, waxman_network.num_edges)
            results = front.query(range(len(oracles)), w)
            for (_, result), direct_oracle in zip(results, direct_oracles):
                direct = direct_oracle.minimum_tree(w)
                assert result.tree == direct.tree
                assert result.length == direct.length
