"""Micro/ablation benchmarks for the core algorithmic building blocks.

These complement the per-table/figure benchmarks with the design-choice
ablations: oracle cost under fixed versus dynamic routing, FPTAS cost
versus epsilon, the online step cost, and the crossover sweep that
backs a tuned constant: the dense/sparse tree length split
(``repro.overlay.tree.SPARSE_LENGTH_MIN_EDGES``).  The sweep prints its
measured crossover beside the configured constant and stores both in
the benchmark's ``extra_info``.  End-to-end speed is ``perfbench/``'s
job.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.maxflow import max_flow
from repro.core.online import online_min_congestion
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.overlay.session import Session, random_session
from repro.overlay.tree import SPARSE_LENGTH_MIN_EDGES
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.topology.generators import paper_flat_topology

# Node counts whose paper_flat edge counts bracket
# SPARSE_LENGTH_MIN_EDGES, and evaluations per point.
LENGTH_NODES = (160, 240, 320, 480, 640)
LENGTH_EVALS = 3000
SEED = 2004


@pytest.fixture(scope="module")
def network():
    return paper_flat_topology(num_nodes=80, seed=3)


@pytest.fixture(scope="module")
def session(network):
    rng = np.random.default_rng(5)
    members = tuple(int(m) for m in rng.choice(network.num_nodes, 8, replace=False))
    return Session(members, demand=100.0, name="bench")


def test_oracle_fixed_routing(benchmark, network, session):
    """Ablation: minimum overlay spanning tree cost under fixed IP routing."""
    benchmark.group = "oracle"
    oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(network))
    lengths = np.random.default_rng(0).uniform(0.1, 1.0, network.num_edges)
    result = benchmark(oracle.minimum_tree, lengths)
    assert result.tree.size == session.size


def test_oracle_dynamic_routing(benchmark, network, session):
    """Ablation: minimum overlay spanning tree cost under dynamic routing."""
    benchmark.group = "oracle"
    oracle = MinimumOverlayTreeOracle(session, DynamicRouting(network))
    lengths = np.random.default_rng(0).uniform(0.1, 1.0, network.num_edges)
    result = benchmark(oracle.minimum_tree, lengths)
    assert result.tree.size == session.size


@pytest.mark.parametrize("epsilon", [0.15, 0.075])
def test_maxflow_epsilon_ablation(run_once, benchmark, network, session, epsilon):
    """Ablation: MaxFlow oracle-call count scales roughly with 1/epsilon^2."""
    benchmark.group = "fptas-epsilon"
    solution = run_once(max_flow, [session], FixedIPRouting(network), epsilon=epsilon)
    assert solution.is_feasible()
    assert solution.oracle_calls > 0


def test_online_acceptance_throughput(benchmark, network, session):
    """Cost of routing five online arrivals (oracles, trees, length updates)."""
    benchmark.group = "online"
    routing = FixedIPRouting(network)

    def accept_batch():
        arrivals = session.replicate(5, demand=1.0)
        solution = online_min_congestion(arrivals, routing, sigma=50.0)
        return solution.extra["max_congestion"]

    congestion = benchmark.pedantic(accept_batch, rounds=3, iterations=1)
    assert congestion > 0


def _us_per_call(fn, *args, reps):
    start = time.perf_counter()
    for _ in range(reps):
        fn(*args)
    return (time.perf_counter() - start) / reps * 1e6


def _report_crossover(benchmark, capsys, sweep, name, configured, unit):
    """Print and store the first point where the second arm won.

    ``sweep`` rows are ``(x, first_us, second_us)``; the crossover is 0
    when the first arm won everywhere (it then sits above the sweep).
    """
    measured = next((x for x, first, second in sweep if second < first), 0)
    benchmark.extra_info.update(
        sweep=[list(row) for row in sweep],
        measured_crossover=measured,
        configured=configured,
    )
    with capsys.disabled():
        print(f"\n{name} = {configured}; measured crossover: {measured} {unit}")


def _tree_length_sweep():
    """The two evaluations behind ``OverlayTree.length``, µs each.

    The dense full-``|E|`` dot against the gathered footprint dot, on
    one 6-member tree per topology.
    """
    sweep = []
    for nodes in LENGTH_NODES:
        network = paper_flat_topology(num_nodes=nodes, capacity=100.0, seed=SEED)
        session = random_session(network, 6, demand=100.0, seed=SEED + 2)
        oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(network))
        tree = oracle.minimum_tree(np.ones(network.num_edges)).tree
        lengths = np.random.default_rng(0).uniform(0.1, 1.0, network.num_edges)
        usage, rows, values = tree.edge_usage, tree.physical_edges, tree.usage_values
        sweep.append((
            network.num_edges,
            _us_per_call(lambda: float(np.dot(usage, lengths)), reps=LENGTH_EVALS),
            _us_per_call(lambda: float(np.dot(values, lengths[rows])),
                         reps=LENGTH_EVALS),
        ))
    return sweep


def test_tree_length_crossover(run_once, benchmark, capsys):
    """Dense vs sparse tree length, µs per call, around ``SPARSE_LENGTH_MIN_EDGES``."""
    benchmark.group = "tree-length"
    sweep = run_once(_tree_length_sweep)
    _report_crossover(
        benchmark, capsys, sweep, "SPARSE_LENGTH_MIN_EDGES", SPARSE_LENGTH_MIN_EDGES,
        "edges",
    )
    edges = [e for e, _, _ in sweep]
    assert edges == sorted(edges)
    assert edges[0] < SPARSE_LENGTH_MIN_EDGES < edges[-1]
    assert all(dense > 0 and sparse > 0 for _, dense, sparse in sweep)
