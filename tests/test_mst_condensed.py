"""Prim on the condensed pair vector gives the matrix Prim's tree.

The oracles hand :func:`minimum_spanning_tree_pairs` one condensed
pair-length vector (``np.triu_indices(n, k=1)`` order) under both
routings instead of a filled ``n x n`` matrix.  Reports stay byte for
byte the same only if the chosen pairs *and their order* are those of
the matrix Prim the oracle ran before, ties included; ``matrix_prim``
below is a verbatim copy of it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.overlay.mst import minimum_spanning_tree_pairs
from repro.util.errors import InvalidSessionError


def matrix_prim(w):
    """The plain-Python Prim over the rows of a full symmetric matrix."""
    n = w.shape[0]
    if n <= 1:
        return []
    rows = w.tolist()
    inf = float("inf")
    in_tree = [False] * n
    in_tree[0] = True
    best_weight = list(rows[0])
    best_weight[0] = inf
    best_parent = [0] * n
    best_parent[0] = -1
    edges = []
    for _ in range(n - 1):
        nxt = -1
        best = inf
        for j in range(n):
            if not in_tree[j] and best_weight[j] < best:
                best = best_weight[j]
                nxt = j
        if nxt < 0:
            raise InvalidSessionError(
                "overlay graph is disconnected under the given weights"
            )
        parent = best_parent[nxt]
        edges.append((parent, nxt) if parent < nxt else (nxt, parent))
        in_tree[nxt] = True
        row = rows[nxt]
        for j in range(n):
            if not in_tree[j] and row[j] < best_weight[j]:
                best_weight[j] = row[j]
                best_parent[j] = nxt
    return edges


def square(condensed, n):
    """Both triangles written from the condensed vector, as the oracle did."""
    w = np.zeros((n, n))
    rows, cols = np.triu_indices(n, k=1)
    w[rows, cols] = condensed
    w[cols, rows] = condensed
    return w


def outcome(fn, weights):
    """The tree's pairs in order, or ``"disconnected"``."""
    try:
        return fn(weights)
    except InvalidSessionError:
        return "disconnected"


def assert_same_tree(condensed, n):
    condensed = np.asarray(condensed, dtype=float)
    expected = outcome(matrix_prim, square(condensed, n))
    assert outcome(minimum_spanning_tree_pairs, condensed) == expected
    return expected


@st.composite
def condensed_vectors(draw, elements):
    n = draw(st.integers(min_value=2, max_value=8))
    size = n * (n - 1) // 2
    return n, draw(st.lists(elements, min_size=size, max_size=size))


@given(condensed_vectors(st.floats(min_value=0.0, max_value=1e12, allow_nan=False)))
@settings(max_examples=200, deadline=None)
def test_drawn_weights_give_the_matrix_tree(drawn):
    n, condensed = drawn
    assert_same_tree(condensed, n)


@given(condensed_vectors(st.integers(min_value=0, max_value=2)))
@settings(max_examples=200, deadline=None)
def test_integer_weights_with_many_ties_give_the_matrix_tree(drawn):
    n, condensed = drawn
    assert_same_tree(condensed, n)


@given(
    condensed_vectors(
        st.one_of(st.just(np.inf), st.floats(min_value=0.0, max_value=10.0))
    )
)
@settings(max_examples=200, deadline=None)
def test_missing_edges_give_the_matrix_outcome(drawn):
    n, condensed = drawn
    assert_same_tree(condensed, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_all_equal_weights_give_the_star_from_node_zero(n):
    tree = assert_same_tree(np.full(n * (n - 1) // 2, 1.0), n)
    assert tree == [(0, j) for j in range(1, n)]


def test_disconnecting_inf_entries_raise():
    # Pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3): only 0-1 and 2-3 exist.
    condensed = np.array([1.0, np.inf, np.inf, np.inf, np.inf, 1.0])
    assert assert_same_tree(condensed, 4) == "disconnected"
    with pytest.raises(InvalidSessionError, match="disconnected"):
        minimum_spanning_tree_pairs(condensed)


def test_one_node_has_no_pairs():
    assert minimum_spanning_tree_pairs(np.empty(0)) == []
    assert minimum_spanning_tree_pairs(np.zeros((1, 1))[np.triu_indices(1, 1)]) == []


def test_a_square_matrix_is_refused():
    # Every caller passes the condensed vector; a matrix is not read as one.
    with pytest.raises(InvalidSessionError, match="condensed vector"):
        minimum_spanning_tree_pairs(square(np.array([1.0, 2.0, 3.0]), 3))


@pytest.mark.parametrize("size", [2, 4, 5, 7])
def test_vector_length_must_count_the_pairs_of_some_node_count(size):
    with pytest.raises(InvalidSessionError, match="pair weights"):
        minimum_spanning_tree_pairs(np.ones(size))
