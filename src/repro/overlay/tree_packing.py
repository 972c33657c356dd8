"""Packing spanning trees (paper Section II-C).

Given a session's *overlay graph* ``G_i`` — the complete graph over the
session members where the weight of edge ``(v_m, v_n)`` is the amount of
traffic ``f(v_m, v_n)`` routed between those two members — the packing
spanning tree problem asks for fractional tree rates whose sum is maximal
while the total rate crossing each overlay edge stays within its weight.

Tutte and Nash-Williams showed the optimum equals

    min over partitions P of G_i of  f(P) / (|P| - 1)

where ``f(P)`` is the total weight of edges crossing the partition.  The
paper uses this as the separation oracle that makes the reformulated
problems M1'/M2' polynomially solvable.  We provide:

* :func:`partition_bound` / :func:`best_partition` — exact evaluation of
  the Tutte/Nash-Williams bound by enumerating set partitions (practical
  for the session sizes where exactness is needed, i.e. tests and the
  Fig. 1 example),
* :func:`pack_spanning_trees_lp` — the exact LP over all spanning trees of
  the overlay graph (Cayley enumeration via Prüfer sequences),
* :func:`pack_spanning_trees_greedy` — a fast greedy packing used as a
  lower-bound sanity check.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.util.errors import ConfigurationError, InvalidSessionError

PairKey = Tuple[int, int]


def _canonical_weights(weights: Dict[PairKey, float], members: Sequence[int]) -> Dict[PairKey, float]:
    out: Dict[PairKey, float] = {}
    member_set = set(int(m) for m in members)
    for (u, v), w in weights.items():
        u, v = int(u), int(v)
        if u == v:
            raise InvalidSessionError("overlay weights cannot contain self-loops")
        if u not in member_set or v not in member_set:
            raise InvalidSessionError(f"weight for ({u}, {v}) references a non-member")
        if w < 0:
            raise InvalidSessionError(f"negative overlay weight for ({u}, {v})")
        key = (min(u, v), max(u, v))
        out[key] = out.get(key, 0.0) + float(w)
    return out


# ----------------------------------------------------------------------
# partitions and the Tutte / Nash-Williams bound
# ----------------------------------------------------------------------
def iter_partitions(items: Sequence[int]) -> Iterator[List[List[int]]]:
    """Iterate over all set partitions of ``items`` (restricted growth strings)."""
    items = list(items)
    n = len(items)
    if n == 0:
        yield []
        return

    def helper(index: int, blocks: List[List[int]]) -> Iterator[List[List[int]]]:
        if index == n:
            yield [list(b) for b in blocks]
            return
        item = items[index]
        for b in blocks:
            b.append(item)
            yield from helper(index + 1, blocks)
            b.pop()
        blocks.append([item])
        yield from helper(index + 1, blocks)
        blocks.pop()

    yield from helper(0, [])


def crossing_weight(
    partition: Sequence[Sequence[int]], weights: Dict[PairKey, float]
) -> float:
    """Total weight of overlay edges whose endpoints lie in different blocks."""
    block_of = {}
    for b_index, block in enumerate(partition):
        for node in block:
            block_of[int(node)] = b_index
    total = 0.0
    for (u, v), w in weights.items():
        if block_of.get(u) != block_of.get(v):
            total += w
    return total


def best_partition(
    members: Sequence[int], weights: Dict[PairKey, float]
) -> Tuple[List[List[int]], float]:
    """Partition minimising ``f(P) / (|P| - 1)`` and its value.

    Only partitions with at least two blocks are considered (the bound is
    undefined for the trivial one-block partition).  Exponential in the
    number of members; intended for validation and small sessions.
    """
    members = [int(m) for m in members]
    if len(members) < 2:
        raise InvalidSessionError("need at least two members")
    if len(members) > 12:
        raise ConfigurationError(
            "exact partition enumeration is limited to 12 members "
            f"(got {len(members)}); use the LP or greedy packing instead"
        )
    w = _canonical_weights(weights, members)
    best_value = float("inf")
    best: List[List[int]] = [[m] for m in members]
    for partition in iter_partitions(members):
        parts = len(partition)
        if parts < 2:
            continue
        value = crossing_weight(partition, w) / (parts - 1)
        if value < best_value - 1e-12:
            best_value = value
            best = [sorted(block) for block in partition]
    return best, best_value


def partition_bound(members: Sequence[int], weights: Dict[PairKey, float]) -> float:
    """The Tutte/Nash-Williams value ``min_P f(P) / (|P| - 1)``."""
    _, value = best_partition(members, weights)
    return value


# ----------------------------------------------------------------------
# exact packing via Prüfer enumeration + LP
# ----------------------------------------------------------------------
def enumerate_spanning_trees(members: Sequence[int]) -> List[Tuple[PairKey, ...]]:
    """All spanning trees of the complete graph over ``members``.

    Uses the Prüfer correspondence: every sequence of length ``n - 2``
    over the members corresponds to exactly one labelled tree, so the
    count is Cayley's ``n^(n-2)``.  Limited to 8 members (8^6 = 262144
    trees) to keep memory bounded.
    """
    members = [int(m) for m in members]
    n = len(members)
    if n < 2:
        raise InvalidSessionError("need at least two members")
    if n == 2:
        return [((min(members), max(members)),)]
    if n > 8:
        raise ConfigurationError(
            f"exact tree enumeration is limited to 8 members, got {n}"
        )

    trees: List[Tuple[PairKey, ...]] = []
    for prufer in itertools.product(members, repeat=n - 2):
        trees.append(tuple(sorted(prufer_to_tree(list(prufer), members))))
    return trees


def prufer_to_tree(prufer: Sequence[int], members: Sequence[int]) -> List[PairKey]:
    """Decode a Prüfer sequence (over member labels) into tree edges."""
    members = [int(m) for m in members]
    prufer = [int(p) for p in prufer]
    degree = {m: 1 for m in members}
    for p in prufer:
        if p not in degree:
            raise InvalidSessionError(f"Prüfer entry {p} is not a member")
        degree[p] += 1
    edges: List[PairKey] = []
    import heapq

    leaves = [m for m in members if degree[m] == 1]
    heapq.heapify(leaves)
    for p in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, p), max(leaf, p)))
        degree[p] -= 1
        if degree[p] == 1:
            heapq.heappush(leaves, p)
    last = sorted(leaves)
    edges.append((min(last[0], last[1]), max(last[0], last[1])))
    return edges


def pack_spanning_trees_lp(
    members: Sequence[int], weights: Dict[PairKey, float]
) -> Tuple[float, Dict[Tuple[PairKey, ...], float]]:
    """Exact maximum fractional spanning-tree packing via linear programming.

    Maximises the total tree rate subject to the per-overlay-edge weight
    constraints of problem S (paper eq. 5).  Returns the optimum and the
    non-zero tree rates.  Exponential in the session size (all trees are
    enumerated); use for validation and small sessions only.
    """
    from scipy.optimize import linprog

    members = [int(m) for m in members]
    w = _canonical_weights(weights, members)
    trees = enumerate_spanning_trees(members)
    pairs = [
        (members[i], members[j]) if members[i] < members[j] else (members[j], members[i])
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ]
    pair_index = {pk: r for r, pk in enumerate(pairs)}

    # Constraint matrix: A[p, t] = 1 if tree t uses overlay edge p.
    a_ub = np.zeros((len(pairs), len(trees)))
    for t_index, tree in enumerate(trees):
        for edge in tree:
            a_ub[pair_index[edge], t_index] = 1.0
    b_ub = np.asarray([w.get(pk, 0.0) for pk in pairs], dtype=float)
    c = -np.ones(len(trees))

    result = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not result.success:  # pragma: no cover - defensive
        raise InvalidSessionError(f"tree packing LP failed: {result.message}")
    rates = {
        trees[t]: float(x) for t, x in enumerate(result.x) if x > 1e-9
    }
    return float(-result.fun), rates


def pack_spanning_trees_greedy(
    members: Sequence[int],
    weights: Dict[PairKey, float],
    max_trees: int = 64,
) -> Tuple[float, Dict[Tuple[PairKey, ...], float]]:
    """Greedy spanning-tree packing (maximum-bottleneck trees, iteratively).

    Repeatedly extracts the spanning tree maximising its bottleneck
    residual weight (computed with a maximum-spanning-tree on residual
    weights), routes that bottleneck amount on it, and subtracts.  Always
    feasible, generally below the LP optimum; used as a fast lower bound
    and in examples.
    """
    members = [int(m) for m in members]
    n = len(members)
    residual = dict(_canonical_weights(weights, members))
    index_of = {m: i for i, m in enumerate(members)}
    total = 0.0
    chosen: Dict[Tuple[PairKey, ...], float] = {}

    for _ in range(max_trees):
        # Build residual weight matrix; missing pairs have zero residual.
        matrix = np.zeros((n, n))
        for (u, v), w in residual.items():
            matrix[index_of[u], index_of[v]] = matrix[index_of[v], index_of[u]] = w
        # Maximum-bottleneck spanning tree == maximum spanning tree by weight.
        # Reuse Prim on negated weights shifted to be non-negative.
        if matrix.max() <= 0:
            break
        from repro.overlay.mst import minimum_spanning_tree_pairs

        shifted = matrix.max() - matrix
        np.fill_diagonal(shifted, 0.0)
        try:
            tree_pairs = minimum_spanning_tree_pairs(shifted)
        except InvalidSessionError:
            break
        edges = tuple(
            sorted(
                (min(members[i], members[j]), max(members[i], members[j]))
                for i, j in tree_pairs
            )
        )
        bottleneck = min(residual.get(e, 0.0) for e in edges)
        if bottleneck <= 1e-12:
            break
        for e in edges:
            residual[e] = residual.get(e, 0.0) - bottleneck
        chosen[edges] = chosen.get(edges, 0.0) + bottleneck
        total += bottleneck
    return total, chosen
