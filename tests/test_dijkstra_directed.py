"""``shortest_path_tree`` against scipy's undirected Dijkstra.

``shortest_path_tree`` runs scipy's *directed* Dijkstra on the network's
scratch CSR, which stores every edge in both orientations with the same
weight.  On such a matrix the undirected search's extra scan of each
settled node's transposed row never relaxes anything, so the two modes
must agree bit for bit, ties included.  The undirected call survives
here only as the oracle: it runs on a matrix built from scratch from the
edge list, independent of the network's cached structure.

A NaN weight fails the wrapper's single ``weights.min() > 0`` test and
passes the checks behind it unchanged, so it too must match the oracle.
"""

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from repro.api.registry import default_registry
from repro.routing.shortest_path import shortest_path_tree
from repro.topology.hierarchical import TwoLevelParameters
from repro.topology.network import PhysicalNetwork

#: Small instances of every registered topology generator.
GENERATOR_PARAMS = {
    "paper_flat": {"num_nodes": 30, "seed": 11},
    "paper_two_level": {"num_ases": 3, "routers_per_as": 10, "seed": 12},
    "waxman": {"num_nodes": 30, "seed": 13},
    "barabasi_albert": {"num_nodes": 30, "attachment": 2, "seed": 14},
    "two_level": {
        "parameters": TwoLevelParameters(num_ases=3, routers_per_as=10),
        "seed": 15,
    },
    "grid": {"rows": 4, "cols": 6},
    "ring": {"num_nodes": 12},
    "complete": {"num_nodes": 9},
    "random_regular": {"num_nodes": 20, "degree": 3, "seed": 16},
}


#: Weight vectors drawn as ``regime(rng, num_edges)``.
WEIGHT_REGIMES = {
    "hop": lambda rng, m: np.ones(m),
    "small_integer_ties": lambda rng, m: rng.integers(1, 4, size=m).astype(float),
    "lognormal": lambda rng, m: rng.lognormal(0.0, 1.0, size=m),
    "wide_1e-100_1e100": lambda rng, m: 10.0 ** rng.uniform(-100.0, 100.0, size=m),
}


def build(generator: str) -> PhysicalNetwork:
    return default_registry().topology(generator)(**GENERATOR_PARAMS[generator])


def undirected_oracle(network: PhysicalNetwork, weights: np.ndarray, sources):
    """scipy's undirected Dijkstra on a from-scratch symmetric matrix."""
    u, v = network.edge_endpoints[:, 0], network.edge_endpoints[:, 1]
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    matrix = coo_matrix(
        (np.concatenate([weights, weights]), (rows, cols)),
        shape=(network.num_nodes, network.num_nodes),
    ).tocsr()
    return dijkstra(
        matrix, directed=False, indices=np.asarray(sources), return_predecessors=True
    )


def assert_bitwise_equal(got, want):
    (got_d, got_p), (want_d, want_p) = got, want
    assert got_d.shape == want_d.shape and got_d.dtype == want_d.dtype
    assert np.array_equal(got_d.view(np.uint64), want_d.view(np.uint64))
    assert np.array_equal(got_p, want_p)


def source_sets(network: PhysicalNetwork, rng):
    n = network.num_nodes
    return [
        [0],
        sorted(rng.choice(n, size=min(6, n), replace=False).tolist()),
        list(range(n)),
    ]


def test_every_registered_generator_is_covered():
    assert sorted(GENERATOR_PARAMS) == default_registry().topology_names()


@pytest.mark.parametrize("regime", sorted(WEIGHT_REGIMES))
@pytest.mark.parametrize("generator", sorted(GENERATOR_PARAMS))
def test_directed_matches_undirected_oracle(generator, regime):
    network = build(generator)
    rng = np.random.default_rng(sorted(GENERATOR_PARAMS).index(generator))
    for _ in range(3):
        weights = WEIGHT_REGIMES[regime](rng, network.num_edges)
        # The condition directed mode relies on: the scratch CSR is
        # exactly symmetric, both orientations of each edge bitwise equal.
        dense = network.csr_adjacency_inplace(weights).toarray()
        assert np.count_nonzero(dense) == 2 * network.num_edges
        assert np.array_equal(
            dense.view(np.uint64), np.ascontiguousarray(dense.T).view(np.uint64)
        )
        passed = None if regime == "hop" else weights
        for sources in source_sets(network, rng):
            assert_bitwise_equal(
                shortest_path_tree(network, sources, passed),
                undirected_oracle(network, weights, sources),
            )


def test_nan_weight_matches_undirected_oracle(waxman_network):
    rng = np.random.default_rng(7)
    weights = rng.lognormal(0.0, 1.0, size=waxman_network.num_edges)
    weights[[3, 17]] = np.nan
    sources = [0, 4, 9, 21]
    assert_bitwise_equal(
        shortest_path_tree(waxman_network, sources, weights),
        undirected_oracle(waxman_network, weights, sources),
    )
