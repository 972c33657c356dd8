"""Micro/ablation benchmarks for the core algorithmic building blocks.

These complement the per-table/figure benchmarks with the design-choice
ablations called out in DESIGN.md: oracle cost under fixed versus dynamic
routing, FPTAS cost versus epsilon, the online step cost, and fixed
MaxFlow on the BENCH instance.  The final benchmark writes the repo-root
``BENCH_core.json`` perf record (quick scale) so the hot-path trajectory
is tracked across PRs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.maxflow import MaxFlow, MaxFlowConfig
from repro.core.online import OnlineConfig, OnlineMinCongestion
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.overlay.session import Session
from repro.perf import QUICK_PROFILE, build_perf_instance, write_core_perf_record
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.topology.generators import paper_flat_topology

REPO_ROOT = Path(__file__).resolve().parents[1]


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
    solver = MaxFlow([session], FixedIPRouting(network), MaxFlowConfig(epsilon=epsilon))
    solution = run_once(solver.solve)
    assert solution.is_feasible()
    assert solution.oracle_calls > 0


def test_online_acceptance_throughput(benchmark, network, session):
    """Cost of accepting one session online (oracle + length update)."""
    benchmark.group = "online"
    routing = FixedIPRouting(network)

    def accept_batch():
        solver = OnlineMinCongestion(routing, OnlineConfig(sigma=50.0))
        for copy in session.replicate(5, demand=1.0):
            solver.accept(copy)
        return solver.state.max_congestion

    congestion = benchmark.pedantic(accept_batch, rounds=3, iterations=1)
    assert congestion > 0


def test_maxflow_fixed_quick(run_once, benchmark):
    """Fixed-routing MaxFlow on the BENCH instance; the tree cache hits."""
    benchmark.group = "oracle-cache"
    network, sessions = build_perf_instance(QUICK_PROFILE)
    solver = MaxFlow(
        sessions,
        FixedIPRouting(network),
        MaxFlowConfig(approximation_ratio=QUICK_PROFILE.fixed_ratio),
    )
    solution = run_once(solver.solve)
    assert solution.oracle_calls > 0
    assert sum(o.cache_hits for o in solver.oracles) > 0


def test_length_multiply_batch_ablation(run_once, benchmark):
    """Ablation: one ``multiply_batch`` call vs the per-update multiply loop."""
    benchmark.group = "length-update"
    from repro.perf.record import _timed_multiply_batch

    result = run_once(_timed_multiply_batch, QUICK_PROFILE)
    assert result["batched_seconds"] > 0
    assert result["loop_seconds"] > 0
    # Coalescing hundreds of per-step calls into one vectorised
    # np.multiply.at must win, and by a wide margin at quick scale.
    assert result["batched_speedup"] > 1.0


def test_tree_length_crossover(run_once, benchmark):
    """Re-measure the dense/sparse length crossover.

    The sweep brackets ``SPARSE_LENGTH_MIN_EDGES``; the measured
    crossover lands in BENCH_core.json.
    """
    benchmark.group = "tree-length"
    from repro.perf.record import _timed_length_crossover

    crossover = run_once(_timed_length_crossover, QUICK_PROFILE)
    assert len(crossover["num_edges"]) == len(QUICK_PROFILE.crossover_nodes)
    assert all(t > 0 for t in crossover["dense_us_per_eval"])
    assert all(t > 0 for t in crossover["sparse_us_per_eval"])


def test_oracle_batch_ablation(run_once, benchmark):
    """Ablation: batched all-session oracle rounds vs the per-oracle loop.

    One :class:`~repro.core.engine.BatchedOracleFront` round answers
    every session's tree query with a single stacked incidence mat-vec
    — the scan MaxFlow performs each iteration.  Both arms are
    bit-identical (engine equivalence suite); this records the
    throughput gap for the BENCH trajectory.
    """
    benchmark.group = "oracle-batch"
    from repro.perf.record import _timed_oracle_batch

    result = run_once(_timed_oracle_batch, QUICK_PROFILE)
    assert result["batched_seconds"] > 0
    assert result["loop_seconds"] > 0
    assert result["sessions"] == len(QUICK_PROFILE.batch_sessions)
    # Structural assertion only (no wall-clock ratio: loaded CI machines
    # flake) — the measured speedup lands in BENCH_core.json either way.
    assert result["batched_speedup"] > 0


def test_dynamic_oracle(run_once, benchmark):
    """Dynamic-routing MaxFlow oracle throughput plus the union-front ablation.

    The front arm answers every all-session round with one union-Dijkstra
    versus one Dijkstra per oracle; both are bit-identical (the dynamic
    front equivalence tests).  The throughputs land in the BENCH
    trajectory.
    """
    benchmark.group = "oracle-dynamic"
    from repro.perf.record import _timed_dynamic_oracle

    result = run_once(_timed_dynamic_oracle, QUICK_PROFILE)
    assert result["calls_per_sec"] > 0
    assert result["front"]["batched_speedup"] > 0


def test_prim_crossover_sweep(run_once, benchmark):
    """Measure the python-vs-numpy Prim crossover behind _PYTHON_PRIM_LIMIT."""
    benchmark.group = "mst"
    from repro.perf.record import _timed_prim_crossover

    result = run_once(_timed_prim_crossover, QUICK_PROFILE)
    assert len(result["sizes"]) == len(QUICK_PROFILE.prim_sizes)
    assert all(t > 0 for t in result["python_us_per_call"])
    assert all(t > 0 for t in result["numpy_us_per_call"])
    # Python must win at the smallest size (the reason the split exists);
    # the crossover itself lands in BENCH_core.json.
    assert result["python_us_per_call"][0] < result["numpy_us_per_call"][0]


def test_emit_bench_core_record(run_once):
    """Write the repo-root BENCH_core.json perf record (quick scale).

    The record is the PR-over-PR perf trajectory for the oracle hot
    path.  Assert structural invariants rather than wall-clock ratios so
    the suite does not flake on loaded machines — the measurements land
    in the emitted record either way.
    """
    path = run_once(write_core_perf_record, REPO_ROOT / "BENCH_core.json", scale="quick")
    record = json.loads(Path(path).read_text())
    fixed = record["maxflow_fixed"]["memoized"]
    assert fixed["cache_hits"] > 0
    assert fixed["oracle_calls"] > 0
    assert record["maxflow_dynamic"]["memoized"]["oracle_calls"] > 0
    assert record["length_multiply"]["batched_speedup"] > 0
    assert record["oracle_batch"]["batched_speedup"] > 0
    assert record["dynamic_oracle"]["calls_per_sec"] > 0
    assert record["prim_crossover"]["configured_limit"] > 0
