"""Unit tests of the standalone tree ledger.

No solver uses :class:`TreeLedger`; the benchmark's traced runs wrap its
methods.  These tests pin what it still promises: columns are
content-addressed, every tree spans the ledger's edge count, and both
products agree with the per-tree arithmetic they stand for.
"""

import numpy as np
import pytest

from repro.core.engine.ledger import TreeLedger
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.routing.base import pair_key
from repro.routing.ip_routing import FixedIPRouting
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def ledger_sessions():
    return [
        Session((0, 4, 9, 13), demand=100.0, name="s1"),
        Session((2, 7, 20), demand=100.0, name="s2"),
    ]


def _pair_tree(routing, network, u, v):
    pk = pair_key(u, v)
    paths = routing.paths_for_pairs([pk])
    return OverlayTree.from_paths((u, v), [pk], paths, network.num_edges)


def _oracle_trees(network, session, seed, count=6):
    oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(network))
    rng = np.random.default_rng(seed)
    return [
        oracle.select_tree(rng.uniform(0.5, 2.0, network.num_edges))
        for _ in range(count)
    ]


def test_register_is_content_addressed(ring6_network):
    routing = FixedIPRouting(ring6_network)
    ledger = TreeLedger(ring6_network.num_edges)
    tree = _pair_tree(routing, ring6_network, 0, 1)
    rebuilt = _pair_tree(routing, ring6_network, 0, 1)
    assert tree is not rebuilt
    first = ledger.register(tree)
    again = ledger.register(rebuilt)
    assert first == again
    assert ledger.num_columns == 1
    other = ledger.register(_pair_tree(routing, ring6_network, 2, 3))
    assert other == 1
    assert ledger.num_columns == 2


def test_register_rejects_mismatched_edge_count(ring6_network, diamond_network):
    routing = FixedIPRouting(diamond_network)
    ledger = TreeLedger(ring6_network.num_edges + 10)
    with pytest.raises(ConfigurationError):
        ledger.register(_pair_tree(routing, diamond_network, 0, 1))


def test_lengths_for_matches_tree_length_dense(waxman_network, ledger_sessions):
    trees = _oracle_trees(waxman_network, ledger_sessions[0], seed=5)
    ledger = TreeLedger(waxman_network.num_edges)
    columns = [ledger.register(t) for t in trees]
    lengths = np.random.default_rng(15).uniform(0.5, 2.0, waxman_network.num_edges)
    stacked = ledger.lengths_for(columns, lengths)
    assert stacked.tolist() == [t.length(lengths) for t in trees]


def test_lengths_for_matches_tree_length_sparse(monkeypatch, ring6_network):
    # Force the sparse per-tree branch on a small network: trees read the
    # module constant at construction time.
    import repro.overlay.tree as tree_mod

    monkeypatch.setattr(tree_mod, "SPARSE_LENGTH_MIN_EDGES", 4)
    routing = FixedIPRouting(ring6_network)
    trees = [_pair_tree(routing, ring6_network, i, (i + 1) % 6) for i in range(6)]
    assert all(t._sparse_length for t in trees)
    ledger = TreeLedger(ring6_network.num_edges)
    columns = [ledger.register(t) for t in trees]
    rng = np.random.default_rng(6)
    lengths = rng.uniform(0.5, 2.0, ring6_network.num_edges)
    stacked = ledger.lengths_for(columns, lengths)
    assert stacked.tolist() == [t.length(lengths) for t in trees]
    # Subset/reordered requests evaluate the same columns identically.
    subset = [columns[4], columns[1]]
    assert ledger.lengths_for(subset, lengths).tolist() == [
        trees[4].length(lengths),
        trees[1].length(lengths),
    ]


def test_edge_values_matches_per_tree_scatter(waxman_network, ledger_sessions):
    trees = _oracle_trees(waxman_network, ledger_sessions[0], seed=7)
    ledger = TreeLedger(waxman_network.num_edges)
    columns = [ledger.register(t) for t in trees]
    weights = np.random.default_rng(17).uniform(0.1, 3.0, len(columns))
    stacked = ledger.edge_values(columns, weights)
    reference = np.zeros(waxman_network.num_edges, dtype=float)
    for tree, w in zip(trees, weights):
        reference[tree.physical_edges] += tree.usage_values * w
    assert np.array_equal(stacked, reference)
    with pytest.raises(ConfigurationError):
        ledger.edge_values(columns, weights[:-1])
