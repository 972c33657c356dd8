"""Cache-equivalence tests for the memoized spanning-tree oracle.

The oracle's tree cache is purely a performance device: every cached
tree must equal the tree a fresh build would give, and every solver must
return *bit-identical* solutions to the reference loops running on
:class:`FreshTreeOracle` (no cache) — the same rates, the same tree sets
with the same per-tree flows, and the same ``oracle_calls`` counter (the
paper's "MST operations" metric counts cache hits like any other oracle
call).
"""

import numpy as np
import pytest

from repro.core.maxconcurrent import max_concurrent_flow
from repro.core.maxflow import max_flow
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.overlay.session import Session
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting

from tests.test_engine_equivalence import (
    FreshTreeOracle,
    fresh_oracles,
    online_trail,
    reference_max_concurrent_flow,
    reference_max_flow,
    reference_online_assignments,
)


class TestOracleCacheBehaviour:
    def test_repeat_call_hits_cache(self, diamond_network):
        oracle = MinimumOverlayTreeOracle(
            Session((0, 1, 3)), FixedIPRouting(diamond_network)
        )
        lengths = np.ones(diamond_network.num_edges)
        first = oracle.minimum_tree(lengths)
        second = oracle.minimum_tree(lengths)
        assert second.tree is first.tree  # the cached object is reused
        assert oracle.call_count == 2  # hits still count as MST operations
        assert oracle.cache_info() == {"hits": 1, "misses": 1, "size": 1}

    def test_unmemoized_oracle_builds_fresh_trees(self, waxman_network):
        # FreshTreeOracle builds every tree anew; the cached trees must
        # equal its builds under both routing models.
        session = Session((0, 4, 9, 13), demand=100.0, name="s1")
        rng = np.random.default_rng(9)
        pool = [rng.uniform(0.5, 2.0, waxman_network.num_edges) for _ in range(4)]
        for routing_cls in (FixedIPRouting, DynamicRouting):
            oracle = MinimumOverlayTreeOracle(session, routing_cls(waxman_network))
            fresh = FreshTreeOracle(session, routing_cls(waxman_network))
            for lengths in pool + pool:
                cached = oracle.minimum_tree(lengths)
                built = fresh.minimum_tree(lengths)
                assert built.tree is not cached.tree
                assert cached.tree == built.tree
                assert cached.length == built.length
                assert np.array_equal(cached.tree.edge_usage, built.tree.edge_usage)
            # The second pass is served from the cache.
            assert oracle.cache_hits >= len(pool)
            assert oracle.call_count == fresh.call_count

    def test_clear_tree_cache(self, diamond_network):
        oracle = MinimumOverlayTreeOracle(
            Session((0, 1, 3)), FixedIPRouting(diamond_network)
        )
        lengths = np.ones(diamond_network.num_edges)
        oracle.minimum_tree(lengths)
        oracle.clear_tree_cache()
        assert oracle.cache_info() == {"hits": 0, "misses": 0, "size": 0}
        oracle.minimum_tree(lengths)
        assert oracle.cache_info()["misses"] == 1

    def test_dynamic_cache_distinguishes_paths(self, diamond_network):
        # The overlay edge set (0, 3) is the same before and after the
        # reroute; only the physical path changes.  The dynamic cache key
        # must keep both realisations as separate entries and still hit
        # when an identical query repeats.
        oracle = MinimumOverlayTreeOracle(
            Session((0, 3)), DynamicRouting(diamond_network)
        )
        base = np.ones(diamond_network.num_edges)
        # The hop-metric tie is broken in favour of 0-2-3, so penalise
        # that route to force the reroute through 0-1-3.
        penalised = base.copy()
        penalised[diamond_network.edge_id(0, 2)] = 50.0
        penalised[diamond_network.edge_id(2, 3)] = 50.0

        first = oracle.minimum_tree(base)
        rerouted = oracle.minimum_tree(penalised)
        assert rerouted.tree != first.tree
        assert oracle.cache_info() == {"hits": 0, "misses": 2, "size": 2}
        repeat = oracle.minimum_tree(base)
        assert repeat.tree is first.tree
        assert oracle.cache_hits == 1


def _fingerprint(solution):
    """Everything the paper reports about a solution, exactly."""
    return {
        "oracle_calls": solution.oracle_calls,
        "rates": [s.rate for s in solution.sessions],
        "names": [s.session.name for s in solution.sessions],
        "num_trees": solution.num_trees_per_session,
        "flows": [
            sorted((tf.tree.canonical_key(), tf.flow) for tf in s.tree_flows)
            for s in solution.sessions
        ],
    }


@pytest.fixture(scope="module")
def equivalence_sessions():
    return [
        Session((0, 4, 9, 13), demand=100.0, name="s1"),
        Session((2, 7, 20), demand=100.0, name="s2"),
    ]


@pytest.mark.parametrize("routing_cls", [FixedIPRouting, DynamicRouting])
class TestSolverEquivalence:
    def test_maxflow_identical(self, waxman_network, equivalence_sessions, routing_cls):
        cached = max_flow(
            equivalence_sessions, routing_cls(waxman_network), epsilon=0.2
        )
        fresh = reference_max_flow(
            equivalence_sessions, routing_cls(waxman_network), 0.2, fresh_oracles
        )
        assert _fingerprint(cached) == _fingerprint(fresh)

    def test_maxconcurrent_identical(
        self, waxman_network, equivalence_sessions, routing_cls
    ):
        cached = max_concurrent_flow(
            equivalence_sessions,
            routing_cls(waxman_network),
            epsilon=0.25,
            prescale_epsilon=0.25,
        )
        fresh = reference_max_concurrent_flow(
            equivalence_sessions, routing_cls(waxman_network), 0.25, 0.25, fresh_oracles
        )
        assert _fingerprint(cached) == _fingerprint(fresh)

    def test_online_identical(self, waxman_network, equivalence_sessions, routing_cls):
        arrivals = [
            copy
            for session in equivalence_sessions
            for copy in session.replicate(3, demand=1.0)
        ]
        fresh_trail = reference_online_assignments(
            arrivals, routing_cls(waxman_network), 50.0, fresh_oracles
        )
        assert online_trail(arrivals, routing_cls(waxman_network), 50.0) == fresh_trail
