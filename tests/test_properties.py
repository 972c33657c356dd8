"""Hypothesis property-based tests for the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lengths import LengthFunction
from repro.overlay.mst import minimum_spanning_tree_pairs
from repro.overlay.tree_packing import (
    pack_spanning_trees_greedy,
    pack_spanning_trees_lp,
    partition_bound,
)
from repro.topology.network import PhysicalNetwork
from repro.util.cdf import cumulative_distribution, normalized_rank_cdf


# ----------------------------------------------------------------------
# CDF helpers
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_cumulative_distribution_is_monotone_and_normalised(values):
    ranks, frac = cumulative_distribution(values)
    assert ranks.shape == frac.shape
    assert np.all(np.diff(frac) >= -1e-9)
    assert np.all(frac <= 1.0 + 1e-9)
    if sum(values) > 0:
        assert frac[-1] == pytest.approx(1.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_normalized_rank_cdf_is_sorted_descending(values):
    _, series = normalized_rank_cdf(values)
    assert np.all(np.diff(series) <= 1e-9)
    assert series.size == len(values)


# ----------------------------------------------------------------------
# Minimum spanning tree
# ----------------------------------------------------------------------
@st.composite
def symmetric_weight_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    upper = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    matrix = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    matrix[iu, ju] = upper
    matrix[ju, iu] = upper
    return matrix


@given(symmetric_weight_matrices())
@settings(max_examples=60, deadline=None)
def test_mst_is_spanning_and_not_worse_than_star(matrix):
    n = matrix.shape[0]
    edges = minimum_spanning_tree_pairs(matrix[np.triu_indices(n, k=1)])
    assert len(edges) == n - 1
    # The edge set must connect all nodes (union-find check).
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    assert len({find(i) for i in range(n)}) == 1
    # MST total weight is no worse than the star rooted at 0.
    mst_weight = sum(matrix[i, j] for i, j in edges)
    star_weight = sum(matrix[0, j] for j in range(1, n))
    assert mst_weight <= star_weight + 1e-9


# ----------------------------------------------------------------------
# Length function
# ----------------------------------------------------------------------
@given(
    st.lists(st.floats(min_value=1.001, max_value=100.0), min_size=1, max_size=30),
    st.floats(min_value=-500.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_length_function_log_values_track_products(factors, log_offset):
    lf = LengthFunction(1, log_offset)
    expected_log = log_offset
    for factor in factors:
        lf.multiply(np.array([0]), np.array([factor]))
        expected_log += np.log(factor)
    assert lf.log_value(lf.relative[0]) == pytest.approx(expected_log, rel=1e-9, abs=1e-6)
    # Relative lengths stay in a representable range no matter how many
    # multiplications happened.
    assert np.isfinite(lf.relative).all()


@given(st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=20))
@settings(max_examples=40, deadline=None)
def test_length_function_relative_ordering_is_scale_free(capacities):
    caps = np.asarray(capacities)
    lf = LengthFunction.for_concurrent(caps, epsilon=0.1)
    order = np.argsort(lf.relative)
    expected = np.argsort(1.0 / caps)
    assert np.array_equal(lf.relative[order], np.sort(1.0 / caps))
    assert np.allclose(np.sort(lf.relative), np.sort(1.0 / caps))
    assert expected.shape == order.shape


# ----------------------------------------------------------------------
# Tree packing: LP optimum equals the Tutte/Nash-Williams bound and greedy
# stays below it.
# ----------------------------------------------------------------------
@st.composite
def overlay_weights(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    members = list(range(n))
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            weights[(i, j)] = draw(st.floats(min_value=0.0, max_value=10.0))
    return members, weights


@given(overlay_weights())
@settings(max_examples=25, deadline=None)
def test_tree_packing_minmax_theorem(data):
    members, weights = data
    lp_value, rates = pack_spanning_trees_lp(members, weights)
    bound = partition_bound(members, weights)
    assert lp_value == pytest.approx(bound, abs=1e-6)
    greedy_value, _ = pack_spanning_trees_greedy(members, weights)
    assert greedy_value <= lp_value + 1e-6
    # Per-edge feasibility of the LP packing.
    usage = {}
    for tree, rate in rates.items():
        for edge in tree:
            usage[edge] = usage.get(edge, 0.0) + rate
    for edge, used in usage.items():
        assert used <= weights[edge] + 1e-6


# ----------------------------------------------------------------------
# PhysicalNetwork invariants
# ----------------------------------------------------------------------
@st.composite
def random_networks(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    # Spanning tree plus random extra edges guarantees connectivity.
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    caps = [draw(st.floats(min_value=0.5, max_value=100.0)) for _ in edges]
    return n, [(u, v, c) for (u, v), c in zip(sorted(edges), caps)]


@given(random_networks())
@settings(max_examples=50, deadline=None)
def test_network_degree_sum_and_connectivity(data):
    n, edges = data
    net = PhysicalNetwork(n, edges)
    assert net.degrees().sum() == 2 * net.num_edges
    assert net.is_connected()
    # Every edge id is recoverable from its endpoints.
    for eid, (u, v) in enumerate(net.edges()):
        assert net.edge_id(u, v) == eid
