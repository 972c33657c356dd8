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
  the overlay graph (Cayley enumeration via Prüfer sequences), solved by
  :func:`repro.lp.exact.solve_tree_lp` over :func:`tree_pair_incidence`,
* :func:`pack_spanning_trees_greedy` — a fast greedy packing used as a
  lower-bound sanity check.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.overlay.mst import minimum_spanning_tree_pairs
from repro.routing.base import PairKey, member_pairs, pair_key
from repro.topology.network import node_id
from repro.util.errors import ConfigurationError, InvalidSessionError


def _node_ids(nodes: Sequence[int]) -> List[int]:
    """``nodes`` as node ids; a float raises instead of being truncated."""
    return [node_id(node, InvalidSessionError) for node in nodes]


def _canonical_weights(weights: Dict[PairKey, float], members: Sequence[int]) -> Dict[PairKey, float]:
    out: Dict[PairKey, float] = {}
    member_set = set(members)
    for (u, v), w in weights.items():
        u, v = _node_ids((u, v))
        if u == v:
            raise InvalidSessionError("overlay weights cannot contain self-loops")
        if u not in member_set or v not in member_set:
            raise InvalidSessionError(f"weight for ({u}, {v}) references a non-member")
        if w < 0:
            raise InvalidSessionError(f"negative overlay weight for ({u}, {v})")
        key = pair_key(u, v)
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
    """Total weight of overlay edges whose endpoints lie in different blocks.

    Raises :class:`InvalidSessionError` for a weight key that is not a
    pair of distinct nodes of the partition, or for a negative weight.
    """
    blocks = [_node_ids(block) for block in partition]
    members = [node for block in blocks for node in block]
    return _crossing_weight(blocks, _canonical_weights(weights, members))


def _crossing_weight(
    partition: Sequence[Sequence[int]], weights: Dict[PairKey, float]
) -> float:
    """:func:`crossing_weight` unchecked: :func:`best_partition` checks its
    weights once, then sums them over up to Bell(12) partitions."""
    block_of = {node: index for index, block in enumerate(partition) for node in block}
    total = 0.0
    for (u, v), w in weights.items():
        if block_of[u] != block_of[v]:
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
    members = _node_ids(members)
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
        value = _crossing_weight(partition, w) / (parts - 1)
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
    members = _node_ids(members)
    n = len(members)
    if n < 2:
        raise InvalidSessionError("need at least two members")
    if n == 2:
        return [(pair_key(*members),)]
    if n > 8:
        raise ConfigurationError(
            f"exact tree enumeration is limited to 8 members, got {n}"
        )

    trees: List[Tuple[PairKey, ...]] = []
    for prufer in itertools.product(members, repeat=n - 2):
        trees.append(tuple(sorted(prufer_to_tree(list(prufer), members))))
    return trees


def tree_pair_incidence(
    trees: Sequence[Tuple[PairKey, ...]], members: Sequence[int]
) -> csr_matrix:
    """Sparse (num_trees x num_pairs) 0/1 incidence of trees over ``members``.

    Entry ``(t, r)`` is 1 when tree ``t`` uses the ``r``-th pair of
    :func:`~repro.routing.base.member_pairs` — the row order of
    :meth:`~repro.routing.ip_routing.FixedIPRouting.incidence_for_members`,
    so ``T @ R`` holds every tree's usage vector ``n_e(t)``.
    """
    column = {pk: r for r, pk in enumerate(member_pairs(members))}
    rows = [t for t, tree in enumerate(trees) for _ in tree]
    cols = [column[edge] for tree in trees for edge in tree]
    return csr_matrix(
        (np.ones(len(cols)), (rows, cols)), shape=(len(trees), len(column))
    )


def prufer_to_tree(prufer: Sequence[int], members: Sequence[int]) -> List[PairKey]:
    """Decode a Prüfer sequence (over member labels) into tree edges."""
    members = _node_ids(members)
    prufer = _node_ids(prufer)
    degree = {m: 1 for m in members}
    for p in prufer:
        if p not in degree:
            raise InvalidSessionError(f"Prüfer entry {p} is not a member")
        degree[p] += 1
    edges: List[PairKey] = []
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
    constraints of problem S (paper eq. 5): the tree LP of
    :mod:`repro.lp.exact` with one session, the member pairs as capacity
    rows and the weights as capacities.  Returns the optimum and the
    non-zero tree rates.  Exponential in the session size (all trees are
    enumerated); use for validation and small sessions only.
    """
    # repro.lp.exact imports this module at load.
    from repro.lp.exact import solve_tree_lp

    members = _node_ids(members)
    w = _canonical_weights(weights, members)
    trees = enumerate_spanning_trees(members)
    capacities = np.asarray([w.get(pk, 0.0) for pk in member_pairs(members)], dtype=float)
    value, (flows,) = solve_tree_lp(
        capacities,
        [tree_pair_incidence(trees, members)],
        "tree packing LP",
        InvalidSessionError,
        weights=[1.0],
    )
    return value, {trees[t]: float(x) for t, x in enumerate(flows) if x > 1e-9}


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
    members = _node_ids(members)
    pairs = member_pairs(members)
    position = {pk: r for r, pk in enumerate(pairs)}
    w = _canonical_weights(weights, members)
    # Residual weight per member pair, condensed; missing pairs have zero.
    residual = np.asarray([w.get(pk, 0.0) for pk in pairs], dtype=float)
    total = 0.0
    chosen: Dict[Tuple[PairKey, ...], float] = {}

    for _ in range(max_trees):
        top = residual.max(initial=0.0)
        if top <= 0:
            break
        # Maximum-bottleneck spanning tree == maximum spanning tree by
        # weight: Prim on the weights mirrored below the largest.
        try:
            tree_pairs = minimum_spanning_tree_pairs(top - residual)
        except InvalidSessionError:
            break
        edges = tuple(sorted(pair_key(members[i], members[j]) for i, j in tree_pairs))
        rows = [position[e] for e in edges]
        bottleneck = float(residual[rows].min())
        if bottleneck <= 1e-12:
            break
        residual[rows] -= bottleneck
        chosen[edges] = chosen.get(edges, 0.0) + bottleneck
        total += bottleneck
    return total, chosen
