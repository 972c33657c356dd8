"""The ``BENCH_core.json`` perf record for the oracle hot path.

Measures the cost that dominates every algorithm in the paper — the
minimum-overlay-spanning-tree oracle — on a deterministic flat-Waxman
instance, and writes a JSON record so the perf trajectory is tracked
from one PR to the next:

* MaxFlow wall time and oracle calls/sec under **fixed IP routing**
  (stored under ``maxflow_fixed.memoized``: the oracle's tree cache is
  always on),
* MaxFlow wall time and oracle calls/sec under **dynamic routing**
  (Dijkstra-dominated — recorded to keep the fixed/dynamic cost ratio
  visible),
* the **tree-length evaluation** ablation: the sparse incidence mat-vec
  over the tree's physical edges (:meth:`OverlayTree.length`) versus the
  dense full-``|E|`` dot product it replaced, plus the dense/sparse
  **crossover sweep** backing ``SPARSE_LENGTH_MIN_EDGES``,
* the **length-update batching** ablation: one
  :meth:`LengthFunction.multiply_batch` call over an accumulated batch
  of (edge, factor) updates versus the per-step ``multiply`` loop it
  coalesces,
* the **oracle batching** ablation: one
  :class:`~repro.core.engine.BatchedOracleFront` round (a stacked
  incidence mat-vec answering every session's tree query at once — the
  engine's per-iteration all-session scan) versus the per-oracle query
  loop it replaces,
* the **dynamic oracle**: MaxFlow oracle throughput under dynamic
  routing, plus a front-level ablation (one union-of-members Dijkstra
  per all-session round versus one Dijkstra per oracle),
* the **Prim crossover**: plain-Python versus vectorised-NumPy Prim at
  several member counts, locating the measured crossover that sets
  ``repro.overlay.mst._PYTHON_PRIM_LIMIT``,
* the **observability overhead** ablation: full engine steps with the
  ``repro.obs`` metrics registry disabled, enabled, and with a live
  trace-span :class:`~repro.obs.tracing.Tracer` active (interleaved
  min-of-reps — the bound backing the "metrics on by default" claim is
  the enabled-vs-disabled delta), plus the trace bit-identity check
  (a traced MaxFlow solve must produce the identical solution),
* the **durability** cost: fsync'd store puts (``durable=True``, the
  default) versus volatile puts on bare ``ReportStore.put`` calls and on
  the realistic cold solve-and-persist cycle the cluster workers run
  (the <10% guard lives on the cycle — solving dominates, as it does in
  production — while the bare-put arm keeps the raw fsync cost honest),
  plus the disabled :func:`repro.faults.point` ns/call pinning the
  fault-injection seams' zero-overhead-when-disabled claim.

The record is a *trajectory*, not a snapshot: every run appends a
compact entry to the ``history`` list (the latest run's full sections
stay top-level), so ``BENCH_core.json`` accumulates one entry per PR /
benchmark invocation instead of overwriting the past.

Measurements use fresh routing models per run so no caches leak between
runs.  Run as a module for a CLI::

    python -m repro.perf.record --scale quick --output BENCH_core.json
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.core.maxflow import MaxFlow, MaxFlowConfig
from repro.overlay.oracle import MinimumOverlayTreeOracle
from repro.overlay.session import Session, random_session
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.topology.generators import paper_flat_topology
from repro.topology.network import PhysicalNetwork
from repro.util.errors import ConfigurationError
from repro.util.rng import ensure_rng
from repro.util.serialization import dump_json

BENCH_SCHEMA = "BENCH_core/v10"
_KNOWN_SCHEMAS = (
    "BENCH_core/v1",
    "BENCH_core/v2",
    "BENCH_core/v3",
    "BENCH_core/v4",
    "BENCH_core/v5",
    "BENCH_core/v6",
    "BENCH_core/v7",
    "BENCH_core/v8",
    "BENCH_core/v9",
    BENCH_SCHEMA,
)


@dataclass(frozen=True)
class PerfProfile:
    """Instance parameters for one perf-record scale."""

    name: str
    num_nodes: int
    session_sizes: Tuple[int, ...]
    fixed_ratio: float
    dynamic_ratio: float
    # The tree-length ablation runs on its own, larger topology: the
    # sparse evaluation only engages above
    # ``overlay.tree.SPARSE_LENGTH_MIN_EDGES`` physical edges, which the
    # solver-profile instances sit below by design (they must solve in
    # seconds).
    length_bench_nodes: int = 600
    length_evals: int = 20000
    # The dense/sparse crossover sweep: node counts whose edge counts
    # bracket ``SPARSE_LENGTH_MIN_EDGES``, and how often each point's
    # raw dense/gathered dot is repeated.
    crossover_nodes: Tuple[int, ...] = (160, 240, 320, 480, 640)
    crossover_evals: int = 3000
    # The multiply-batch ablation: how many accumulated (edge, factor)
    # updates one batched call replaces, and how often to repeat the
    # whole comparison for a stable timing.
    multiply_updates: int = 512
    multiply_edges_per_update: int = 24
    multiply_reps: int = 50
    # The oracle-batch ablation: a many-session instance (the batched
    # front's win grows with the session count) and how many all-session
    # query rounds to time.
    batch_nodes: int = 200
    batch_sessions: Tuple[int, ...] = (8, 6, 7, 8, 6, 7, 8, 6)
    batch_rounds: int = 300
    # The dynamic-front ablation reuses the batch instance under dynamic
    # routing; Dijkstra rounds cost more than mat-vecs, so it times
    # fewer of them.
    dynamic_front_rounds: int = 120
    # The Prim-crossover sweep: member counts to time both variants at
    # (the per-size repetition count is derived from the size).
    prim_sizes: Tuple[int, ...] = (8, 16, 32, 64, 96, 128, 192)
    prim_reps: int = 2000
    # The observability-overhead ablation: a larger instance than the
    # solver profiles, engine steps per timed arm and interleaved
    # repetitions (each arm keeps its best-of-reps, so adjacent arms see
    # the same machine noise).
    engine_nodes: int = 320
    engine_fixed_sessions: Tuple[int, ...] = (6, 5, 4) * 8
    engine_epsilon: float = 0.05
    obs_steps: int = 400
    obs_reps: int = 3
    # The durability arms: bare puts per store variant, interleaved
    # solve-and-persist repetitions (best-of), and how many disabled
    # fault-point crossings to time for the ns/call figure.
    durability_puts: int = 200
    durability_reps: int = 4
    fault_point_calls: int = 200000
    seed: int = 2004


# "tiny" must stay sub-seconds: it runs inside the tier-1 test suite
# (the bench_smoke marker).  "quick" is the benchmark-suite default.
TINY_PROFILE = PerfProfile(
    name="tiny",
    num_nodes=24,
    session_sizes=(4, 3),
    fixed_ratio=0.80,
    dynamic_ratio=0.75,
    length_bench_nodes=400,
    length_evals=2000,
    crossover_nodes=(160, 320),
    crossover_evals=300,
    multiply_updates=128,
    multiply_reps=5,
    batch_nodes=80,
    batch_sessions=(5, 4, 5, 4),
    batch_rounds=40,
    dynamic_front_rounds=20,
    prim_sizes=(8, 32, 96),
    prim_reps=200,
    engine_nodes=120,
    engine_fixed_sessions=(4, 3) * 3,
    obs_steps=50,
    obs_reps=2,
    durability_puts=60,
    durability_reps=4,
    fault_point_calls=50000,
)
QUICK_PROFILE = PerfProfile(
    name="quick",
    num_nodes=48,
    session_sizes=(6, 4),
    fixed_ratio=0.90,
    dynamic_ratio=0.80,
    length_bench_nodes=600,
    length_evals=20000,
)


def profile_for_scale(scale: str) -> PerfProfile:
    """Resolve a perf profile from a scale name."""
    if scale == "tiny":
        return TINY_PROFILE
    if scale == "quick":
        return QUICK_PROFILE
    raise ConfigurationError(f"unknown perf scale {scale!r}; use 'tiny' or 'quick'")


def build_perf_instance(profile: PerfProfile) -> Tuple[PhysicalNetwork, List[Session]]:
    """The deterministic network + sessions a perf profile measures on.

    Public so the benchmark suite can run ablations on exactly the
    instance the BENCH_core record describes.
    """
    network = paper_flat_topology(
        num_nodes=profile.num_nodes, capacity=100.0, seed=profile.seed
    )
    rng = ensure_rng(profile.seed + 1)
    sessions = [
        random_session(
            network, size, demand=100.0, seed=rng, name=f"session-{index + 1}"
        )
        for index, size in enumerate(profile.session_sizes)
    ]
    return network, sessions


def _timed_maxflow(
    network: PhysicalNetwork,
    sessions: List[Session],
    routing_kind: str,
    ratio: float,
) -> Dict[str, float]:
    routing = (
        FixedIPRouting(network) if routing_kind == "fixed" else DynamicRouting(network)
    )
    solver = MaxFlow(sessions, routing, MaxFlowConfig(approximation_ratio=ratio))
    start = time.perf_counter()
    solution = solver.solve()
    seconds = time.perf_counter() - start
    hits = sum(o.cache_hits for o in solver.oracles)
    misses = sum(o.cache_misses for o in solver.oracles)
    return {
        "seconds": seconds,
        "oracle_calls": float(solution.oracle_calls),
        "calls_per_sec": solution.oracle_calls / seconds if seconds > 0 else 0.0,
        "cache_hits": float(hits),
        "cache_misses": float(misses),
        "overall_throughput": solution.overall_throughput,
    }


def _timed_tree_length(profile: PerfProfile) -> Dict[str, float]:
    """Ablation: sparse incidence mat-vec tree length vs the dense dot.

    ``OverlayTree.length`` gathers the tree's physical-edge lengths and
    dots them with the precomputed usage values; the dense arm is the
    full-``|E|`` product it replaced.  Both arms evaluate the same tree
    under the same length vector, so the speedup isolates the sparse
    evaluation itself.  Measured on the profile's dedicated
    ``length_bench_nodes`` topology — large enough (``>=
    SPARSE_LENGTH_MIN_EDGES`` edges) for the sparse path to engage.
    """
    network = paper_flat_topology(
        num_nodes=profile.length_bench_nodes, capacity=100.0, seed=profile.seed
    )
    session = random_session(network, 6, demand=100.0, seed=profile.seed + 2)
    oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(network))
    tree = oracle.minimum_tree(np.ones(network.num_edges)).tree
    iterations = profile.length_evals
    lengths = ensure_rng(0).uniform(0.1, 1.0, network.num_edges)
    dense_usage = tree.edge_usage

    start = time.perf_counter()
    for _ in range(iterations):
        tree.length(lengths)
    sparse_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(iterations):
        float(np.dot(dense_usage, lengths))
    dense_seconds = time.perf_counter() - start

    return {
        "iterations": float(iterations),
        "physical_edges": float(tree.physical_edges.size),
        "num_edges": float(network.num_edges),
        "sparse_seconds": sparse_seconds,
        "dense_seconds": dense_seconds,
        "sparse_evals_per_sec": iterations / sparse_seconds if sparse_seconds > 0 else 0.0,
        "dense_evals_per_sec": iterations / dense_seconds if dense_seconds > 0 else 0.0,
        "sparse_speedup": dense_seconds / sparse_seconds if sparse_seconds > 0 else 0.0,
        "crossover": _timed_length_crossover(profile),
    }


def _timed_length_crossover(profile: PerfProfile) -> Dict[str, object]:
    """The dense/sparse tree-length crossover sweep.

    Times the two raw evaluations behind :meth:`OverlayTree.length` —
    the dense full-``|E|`` dot and the gathered footprint dot — on
    instances whose edge counts bracket ``SPARSE_LENGTH_MIN_EDGES``, and
    reports the first measured edge count where the gather wins — the
    measurement backing the constant.
    """
    from repro.overlay.tree import SPARSE_LENGTH_MIN_EDGES

    edge_counts: List[float] = []
    dense_us: List[float] = []
    sparse_us: List[float] = []
    crossover = 0.0
    reps = profile.crossover_evals
    for nodes in profile.crossover_nodes:
        network = paper_flat_topology(
            num_nodes=nodes, capacity=100.0, seed=profile.seed
        )
        session = random_session(network, 6, demand=100.0, seed=profile.seed + 2)
        oracle = MinimumOverlayTreeOracle(session, FixedIPRouting(network))
        tree = oracle.minimum_tree(np.ones(network.num_edges)).tree
        lengths = ensure_rng(0).uniform(0.1, 1.0, network.num_edges)
        usage = tree.edge_usage
        rows = tree.physical_edges
        values = tree.usage_values

        start = time.perf_counter()
        for _ in range(reps):
            float(np.dot(usage, lengths))
        dense_seconds = (time.perf_counter() - start) / reps

        start = time.perf_counter()
        for _ in range(reps):
            float(np.dot(values, lengths[rows]))
        sparse_seconds = (time.perf_counter() - start) / reps

        edge_counts.append(float(network.num_edges))
        dense_us.append(dense_seconds * 1e6)
        sparse_us.append(sparse_seconds * 1e6)
        if crossover == 0.0 and sparse_seconds < dense_seconds:
            crossover = float(network.num_edges)
    return {
        "num_edges": edge_counts,
        "dense_us_per_eval": dense_us,
        "sparse_us_per_eval": sparse_us,
        # First measured edge count where the gather won; 0.0 when dense
        # won everywhere (the crossover then sits above the sweep).
        "measured_crossover": crossover,
        "configured_min_edges": float(SPARSE_LENGTH_MIN_EDGES),
    }


def _timed_multiply_batch(profile: PerfProfile) -> Dict[str, float]:
    """Ablation: one ``multiply_batch`` call versus a loop of ``multiply``.

    Both arms apply the same accumulated batch of (edge, factor) updates
    — edge ids repeat across updates, as they do when many tree updates
    are coalesced — starting from identical length functions, so the
    speedup isolates call-count overhead plus the vectorised
    ``np.multiply.at`` accumulation.  Final lengths agree up to shared
    renormalisation (multiplication is commutative); the equivalence is
    asserted bit-level in the test suite, here we only time.
    """
    from repro.core.lengths import LengthFunction

    rng = ensure_rng(profile.seed + 3)
    num_edges = 4 * profile.length_bench_nodes  # a plausible |E| for the scale
    updates = [
        (
            rng.choice(num_edges, profile.multiply_edges_per_update, replace=False),
            rng.uniform(1.0, 1.2, profile.multiply_edges_per_update),
        )
        for _ in range(profile.multiply_updates)
    ]
    batch_ids = np.concatenate([ids for ids, _ in updates])
    batch_factors = np.concatenate([factors for _, factors in updates])

    loop_seconds = 0.0
    batched_seconds = 0.0
    for _ in range(profile.multiply_reps):
        lengths = LengthFunction(num_edges, 0.0)
        start = time.perf_counter()
        for ids, factors in updates:
            lengths.multiply(ids, factors)
        loop_seconds += time.perf_counter() - start

        lengths = LengthFunction(num_edges, 0.0)
        start = time.perf_counter()
        lengths.multiply_batch(batch_ids, batch_factors)
        batched_seconds += time.perf_counter() - start

    total_updates = float(profile.multiply_reps * profile.multiply_updates)
    return {
        "updates": float(profile.multiply_updates),
        "edges_per_update": float(profile.multiply_edges_per_update),
        "num_edges": float(num_edges),
        "reps": float(profile.multiply_reps),
        "loop_seconds": loop_seconds,
        "batched_seconds": batched_seconds,
        "loop_updates_per_sec": total_updates / loop_seconds if loop_seconds > 0 else 0.0,
        "batched_updates_per_sec": (
            total_updates / batched_seconds if batched_seconds > 0 else 0.0
        ),
        "batched_speedup": loop_seconds / batched_seconds if batched_seconds > 0 else 0.0,
    }


def _timed_oracle_batch(profile: PerfProfile) -> Dict[str, float]:
    """Ablation: one batched all-session oracle round vs the query loop.

    Both arms answer the same query — every session's minimum overlay
    tree under a shared length vector, the scan MaxFlow performs each
    iteration — over the same cycled pool of length vectors, with
    separate oracle sets so neither arm warms the other's tree cache.
    The batched arm is one stacked incidence mat-vec plus per-session
    tree construction (:class:`repro.core.engine.BatchedOracleFront`);
    the loop arm is one ``incidence @ lengths`` per session.  Results
    are bit-identical (asserted in the engine equivalence suite); here
    we only time.
    """
    from repro.core.engine import BatchedOracleFront
    from repro.overlay.oracle import build_oracles

    network = paper_flat_topology(
        num_nodes=profile.batch_nodes, capacity=100.0, seed=profile.seed
    )
    rng = ensure_rng(profile.seed + 4)
    sessions = [
        random_session(network, size, demand=100.0, seed=rng, name=f"batch-{i + 1}")
        for i, size in enumerate(profile.batch_sessions)
    ]
    routing = FixedIPRouting(network)
    batched_oracles = build_oracles(sessions, routing)
    loop_oracles = build_oracles(sessions, routing)
    front = BatchedOracleFront(batched_oracles)
    indices = list(range(len(sessions)))
    pool = [
        ensure_rng(profile.seed + 5 + i).uniform(0.1, 1.0, network.num_edges)
        for i in range(8)
    ]

    # Warm both arms (route caches, incidence build, tree caches) so the
    # timed rounds compare steady-state query cost.
    front.query(indices, pool[0])
    for oracle in loop_oracles:
        oracle.minimum_tree(pool[0])

    rounds = profile.batch_rounds
    start = time.perf_counter()
    for r in range(rounds):
        front.query(indices, pool[r % len(pool)])
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for r in range(rounds):
        lengths = pool[r % len(pool)]
        for oracle in loop_oracles:
            oracle.minimum_tree(lengths)
    loop_seconds = time.perf_counter() - start

    return {
        "rounds": float(rounds),
        "sessions": float(len(sessions)),
        "num_edges": float(network.num_edges),
        "batched_seconds": batched_seconds,
        "loop_seconds": loop_seconds,
        "batched_rounds_per_sec": rounds / batched_seconds if batched_seconds > 0 else 0.0,
        "loop_rounds_per_sec": rounds / loop_seconds if loop_seconds > 0 else 0.0,
        "batched_speedup": loop_seconds / batched_seconds if batched_seconds > 0 else 0.0,
    }


def _timed_dynamic_front(profile: PerfProfile) -> Dict[str, float]:
    """Ablation: one union-Dijkstra front round vs the per-oracle loop.

    Both arms answer the same all-session query round under dynamic
    routing with the one-Dijkstra oracle fast path on.  The batched arm
    runs a single Dijkstra from the union of every session's members per
    round (:class:`repro.core.engine.BatchedOracleFront`, dynamic mode)
    and hands each oracle its distance/predecessor rows; the loop arm
    runs one Dijkstra per oracle.  Results are bit-identical (engine
    equivalence suite); here we only time.
    """
    from repro.core.engine import BatchedOracleFront
    from repro.overlay.oracle import build_oracles

    network = paper_flat_topology(
        num_nodes=profile.batch_nodes, capacity=100.0, seed=profile.seed
    )
    rng = ensure_rng(profile.seed + 4)
    sessions = [
        random_session(network, size, demand=100.0, seed=rng, name=f"dyn-{i + 1}")
        for i, size in enumerate(profile.batch_sessions)
    ]
    # Separate routing models per arm: the path-by-nodes cache and the
    # tree caches must not leak across arms.
    batched_oracles = build_oracles(sessions, DynamicRouting(network))
    loop_oracles = build_oracles(sessions, DynamicRouting(network))
    front = BatchedOracleFront(batched_oracles)
    indices = list(range(len(sessions)))
    pool = [
        ensure_rng(profile.seed + 5 + i).uniform(0.1, 1.0, network.num_edges)
        for i in range(8)
    ]

    front.query(indices, pool[0])
    for oracle in loop_oracles:
        oracle.minimum_tree(pool[0])

    rounds = profile.dynamic_front_rounds
    start = time.perf_counter()
    for r in range(rounds):
        front.query(indices, pool[r % len(pool)])
    batched_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for r in range(rounds):
        lengths = pool[r % len(pool)]
        for oracle in loop_oracles:
            oracle.minimum_tree(lengths)
    loop_seconds = time.perf_counter() - start

    return {
        "rounds": float(rounds),
        "sessions": float(len(sessions)),
        "num_edges": float(network.num_edges),
        "batched_seconds": batched_seconds,
        "loop_seconds": loop_seconds,
        "batched_rounds_per_sec": rounds / batched_seconds if batched_seconds > 0 else 0.0,
        "loop_rounds_per_sec": rounds / loop_seconds if loop_seconds > 0 else 0.0,
        "batched_speedup": loop_seconds / batched_seconds if batched_seconds > 0 else 0.0,
    }


def _timed_dynamic_oracle(profile: PerfProfile) -> Dict[str, object]:
    """MaxFlow oracle throughput under dynamic routing.

    The headline ``calls_per_sec`` is directly comparable to the
    ``dynamic_calls_per_sec`` trajectory entries.  The ``front``
    sub-section is the union-Dijkstra round ablation on a many-session
    instance.
    """
    network, sessions = build_perf_instance(profile)
    fast = _timed_maxflow(network, sessions, "dynamic", profile.dynamic_ratio)
    return {
        "calls_per_sec": fast["calls_per_sec"],
        "seconds": fast["seconds"],
        "oracle_calls": fast["oracle_calls"],
        "front": _timed_dynamic_front(profile),
    }


def _timed_prim_crossover(profile: PerfProfile) -> Dict[str, object]:
    """Python-vs-NumPy Prim at several member counts.

    Locates the measured crossover backing
    ``repro.overlay.mst._PYTHON_PRIM_LIMIT``: below it the plain-Python
    scan beats NumPy's per-call overhead, above it the vectorised
    variant wins.  Both variants produce identical trees (identical
    tie-breaking), so the limit is purely a performance knob.
    """
    from repro.overlay.mst import _PYTHON_PRIM_LIMIT, _prim_numpy, _prim_python

    rng = ensure_rng(profile.seed + 6)
    sizes: List[float] = []
    python_us: List[float] = []
    numpy_us: List[float] = []
    crossover = 0.0
    for n in profile.prim_sizes:
        w = rng.uniform(0.1, 1.0, (n, n))
        w = np.maximum(w, w.T)
        np.fill_diagonal(w, 0.0)
        reps = max(3, profile.prim_reps // n)
        start = time.perf_counter()
        for _ in range(reps):
            _prim_python(w, n)
        python_seconds = (time.perf_counter() - start) / reps
        start = time.perf_counter()
        for _ in range(reps):
            _prim_numpy(w, n)
        numpy_seconds = (time.perf_counter() - start) / reps
        sizes.append(float(n))
        python_us.append(python_seconds * 1e6)
        numpy_us.append(numpy_seconds * 1e6)
        if crossover == 0.0 and numpy_seconds < python_seconds:
            crossover = float(n)
    return {
        "sizes": sizes,
        "python_us_per_call": python_us,
        "numpy_us_per_call": numpy_us,
        # First measured size where numpy won; 0.0 when python won
        # everywhere in the sweep (the limit then sits above the sweep).
        "measured_crossover": crossover,
        "configured_limit": float(_PYTHON_PRIM_LIMIT),
    }


def _timed_obs_overhead(profile: PerfProfile) -> Dict[str, object]:
    """Ablation: what the ``repro.obs`` surfaces cost on the hot path.

    Three arms over identical full-engine-step sequences on the
    profile's engine instance (fixed routing):

    * ``disabled`` — metrics registry off (``REPRO_METRICS=0``
      equivalent) and no tracer: the pre-observability baseline,
    * ``metrics`` — the registry on, as it is by default.  The engine
      publishes its counters only at ``snapshot()`` (the registry tap),
      so the per-step delta is the cost of the design claim: metrics on
      must stay within a few percent of off,
    * ``traced`` — a live :class:`~repro.obs.tracing.Tracer` activated
      around the same steps: one span object and one event dict per
      step plus one per oracle round, the opt-in tracing cost.

    Arms run interleaved and keep their best-of-reps, so adjacent arms
    see the same machine noise; overhead percentages can come out
    slightly negative in the noise floor, which reads as "no measurable
    overhead".  The bit-identity arm then solves the profile's MaxFlow
    instance with and without an active tracer and compares outputs —
    tracing must observe, never perturb.
    """
    from repro.core.engine import MaxFlowPolicy, NormalizedLengthStop, PhaseEngine
    from repro.core.lengths import LengthFunction
    from repro.obs import metrics as obs_metrics
    from repro.obs.tracing import Tracer
    from repro.overlay.oracle import build_oracles

    network = paper_flat_topology(
        num_nodes=profile.engine_nodes, capacity=100.0, seed=profile.seed
    )
    rng = ensure_rng(profile.seed + 11)
    sessions = [
        random_session(network, size, demand=100.0, seed=rng, name=f"obs{i}")
        for i, size in enumerate(profile.engine_fixed_sessions)
    ]
    routing = FixedIPRouting(network)  # shared: route caches warm once

    def build_engine() -> "PhaseEngine":
        oracles = build_oracles(sessions, routing)
        max_size = max(s.size for s in sessions)
        longest = max(1, max(o.max_route_length() for o in oracles))
        lengths = LengthFunction.for_maxflow(
            network.num_edges, profile.engine_epsilon, max_size, longest
        )
        return PhaseEngine(
            oracles=oracles,
            lengths=lengths,
            capacities=network.capacities,
            policy=MaxFlowPolicy(
                epsilon=profile.engine_epsilon, max_session_size=max_size
            ),
            stopping=NormalizedLengthStop(),
            step_cap=10**9,
            cap_message="obs-overhead bench exceeded its cap",
        )

    steps = profile.obs_steps

    def run_arm(tracer: "Tracer" = None) -> float:
        engine = build_engine()
        if tracer is None:
            start = time.perf_counter()
            for _ in range(steps):
                engine.step()
            return time.perf_counter() - start
        with tracer.activate():
            start = time.perf_counter()
            for _ in range(steps):
                engine.step()
            return time.perf_counter() - start

    was_enabled = obs_metrics.metrics_enabled()
    best = {"disabled": float("inf"), "metrics": float("inf"), "traced": float("inf")}
    try:
        obs_metrics.configure_metrics(False)
        run_arm()  # warm: route caches, incidence build, allocator
        for _ in range(profile.obs_reps):
            obs_metrics.configure_metrics(False)
            best["disabled"] = min(best["disabled"], run_arm())
            obs_metrics.configure_metrics(True)
            best["metrics"] = min(best["metrics"], run_arm())
            best["traced"] = min(best["traced"], run_arm(Tracer()))
    finally:
        obs_metrics.configure_metrics(was_enabled)

    def overhead_pct(arm: str) -> float:
        if best["disabled"] <= 0:
            return 0.0
        return (best[arm] - best["disabled"]) / best["disabled"] * 100.0

    # Bit-identity: a traced solve must produce the identical solution.
    network2, sessions2 = build_perf_instance(profile)
    plain = MaxFlow(
        sessions2,
        FixedIPRouting(network2),
        MaxFlowConfig(approximation_ratio=profile.fixed_ratio),
    ).solve()
    tracer = Tracer()
    with tracer.activate():
        traced = MaxFlow(
            sessions2,
            FixedIPRouting(network2),
            MaxFlowConfig(approximation_ratio=profile.fixed_ratio),
        ).solve()
    span_events = [e for e in tracer.events if e.get("ph") == "X"]
    step_spans = sum(1 for e in span_events if e["name"] == "engine.step")

    return {
        "steps": float(steps),
        "reps": float(profile.obs_reps),
        "sessions": float(len(sessions)),
        "num_edges": float(network.num_edges),
        "disabled_seconds": best["disabled"],
        "metrics_seconds": best["metrics"],
        "traced_seconds": best["traced"],
        "metrics_overhead_pct": overhead_pct("metrics"),
        "trace_overhead_pct": overhead_pct("traced"),
        "traced_span_events": float(len(span_events)),
        "traced_step_spans": float(step_spans),
        "outputs_identical_with_trace": bool(
            plain.overall_throughput == traced.overall_throughput
            and plain.oracle_calls == traced.oracle_calls
        ),
    }


def _timed_durability(profile: PerfProfile) -> Dict[str, object]:
    """What crash durability costs: fsync'd puts vs volatile puts.

    ``ReportStore`` fsyncs each put's temp file and parent directory by
    default (``durable=True``), so a published entry survives power
    loss.  Two arms price that:

    * ``put`` — bare back-to-back puts of one solved report into a
      durable versus a volatile store (gzip wire format, memory front
      off).  This is the *worst case* for the knob — nothing amortises
      the fsyncs — and is recorded without a guard so the raw cost stays
      visible in the trajectory.
    * ``solve_persist`` — the realistic cycle a cluster worker runs:
      cold-solve the profile's instance and persist the report, timed
      end to end.  Solving dominates, as it does in production, so this
      is where the "<10% overhead" design guard lives (asserted in the
      bench smoke).  Reps run as interleaved durable/volatile *pairs*
      and the guarded ``overhead_pct`` is the smallest paired delta:
      machine noise between two ~tens-of-ms runs can only inflate a
      pair's delta, so the minimum is the honest upper bound on what
      the fsyncs actually cost the cycle.

    The ``fault_point`` arm times :func:`repro.faults.point` with no
    plan installed — one module-global load plus an ``is None`` test —
    pinning the claim that the injection seams are free to leave in hot
    I/O paths permanently.
    """
    import tempfile

    import repro.api as api
    from repro import faults
    from repro.store.report_store import ReportStore

    spec = api.ScenarioSpec(
        topology=api.TopologySpec(
            "paper_flat",
            {"num_nodes": profile.num_nodes, "capacity": 100.0},
            seed=profile.seed,
        ),
        workload=api.WorkloadSpec(
            sizes=profile.session_sizes, demand=100.0, seed=profile.seed + 1
        ),
        solver="max_flow",
        solver_params={"approximation_ratio": profile.fixed_ratio},
    )
    api.clear_caches()
    report = api.solve_many([spec], jobs=1)[0]

    def seconds_per_put(durable: bool) -> float:
        with tempfile.TemporaryDirectory() as tmp:
            store = ReportStore(
                tmp, compress=True, durable=durable, memory_entries=0
            )
            store.put(report)  # warm: object dirs, index file, allocator
            start = time.perf_counter()
            for _ in range(profile.durability_puts):
                store.put(report)
            return (time.perf_counter() - start) / profile.durability_puts

    durable_put = seconds_per_put(True)
    volatile_put = seconds_per_put(False)

    # The realistic arm: a cold solve landing in the store, the unit of
    # work whose durability the knob actually buys.  Reps run as
    # adjacent durable/volatile pairs; the guard takes the smallest
    # paired delta (noise between runs only inflates a pair's delta).
    def timed_cycle(durable: bool) -> float:
        with tempfile.TemporaryDirectory() as tmp:
            store = ReportStore(
                tmp, compress=True, durable=durable, memory_entries=0
            )
            api.clear_caches()
            start = time.perf_counter()
            api.solve_many([spec], jobs=1, store=store)
            return time.perf_counter() - start

    best = {"durable": float("inf"), "volatile": float("inf")}
    paired_overhead = float("inf")
    for _ in range(profile.durability_reps):
        durable_seconds = timed_cycle(True)
        volatile_seconds = timed_cycle(False)
        best["durable"] = min(best["durable"], durable_seconds)
        best["volatile"] = min(best["volatile"], volatile_seconds)
        if volatile_seconds > 0:
            paired_overhead = min(
                paired_overhead,
                (durable_seconds - volatile_seconds) / volatile_seconds * 100.0,
            )
    api.clear_caches()  # leave no bench report behind in the api cache

    calls = profile.fault_point_calls
    with faults.fault_scope(None):  # pin the disabled (plan is None) path
        start = time.perf_counter()
        for _ in range(calls):
            faults.point("bench.disabled")
        disabled_ns = (time.perf_counter() - start) / calls * 1e9

    return {
        "puts": float(profile.durability_puts),
        "reps": float(profile.durability_reps),
        "durable_us_per_put": durable_put * 1e6,
        "volatile_us_per_put": volatile_put * 1e6,
        "put_overhead_pct": (
            (durable_put - volatile_put) / volatile_put * 100.0
            if volatile_put > 0
            else 0.0
        ),
        "solve_persist": {
            "durable_seconds": best["durable"],
            "volatile_seconds": best["volatile"],
            # Smallest paired delta across reps — the noise-robust upper
            # bound on the fsync cost; can sit slightly negative in the
            # noise floor, which reads as "no measurable overhead".
            "overhead_pct": (
                paired_overhead if paired_overhead != float("inf") else 0.0
            ),
        },
        "fault_point": {
            "calls": float(calls),
            "disabled_ns_per_call": disabled_ns,
        },
    }


def measure_core_perf(scale: str = "quick") -> Dict[str, object]:
    """Measure the oracle hot path and return one run's BENCH_core record."""
    profile = profile_for_scale(scale)
    network, sessions = build_perf_instance(profile)

    # Warm-up pass (imports, allocator, BLAS threads) so the timed runs
    # compare the algorithm, not process start-up noise.
    _timed_maxflow(network, sessions, "fixed", profile.fixed_ratio)

    fixed = _timed_maxflow(network, sessions, "fixed", profile.fixed_ratio)
    dynamic = _timed_maxflow(network, sessions, "dynamic", profile.dynamic_ratio)
    return {
        "schema": BENCH_SCHEMA,
        "scale": profile.name,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "instance": {
            "num_nodes": profile.num_nodes,
            "num_edges": network.num_edges,
            "session_sizes": list(profile.session_sizes),
            "fixed_ratio": profile.fixed_ratio,
            "dynamic_ratio": profile.dynamic_ratio,
            "seed": profile.seed,
        },
        "maxflow_fixed": {"memoized": fixed},
        "maxflow_dynamic": {"memoized": dynamic},
        "tree_length": _timed_tree_length(profile),
        "length_multiply": _timed_multiply_batch(profile),
        "oracle_batch": _timed_oracle_batch(profile),
        "dynamic_oracle": _timed_dynamic_oracle(profile),
        "prim_crossover": _timed_prim_crossover(profile),
        "obs_overhead": _timed_obs_overhead(profile),
        "durability": _timed_durability(profile),
    }


def _history_entry(record: Dict[str, object]) -> Dict[str, object]:
    """Compact per-run trajectory entry derived from a full record."""
    fixed = record.get("maxflow_fixed", {})
    dynamic = record.get("maxflow_dynamic", {})
    tree_length = record.get("tree_length", {})
    entry: Dict[str, object] = {
        "schema": record.get("schema"),
        "scale": record.get("scale"),
        "recorded_at": record.get("recorded_at"),
        "fixed_calls_per_sec": fixed.get("memoized", {}).get("calls_per_sec"),
        "fixed_seconds": fixed.get("memoized", {}).get("seconds"),
        "dynamic_calls_per_sec": dynamic.get("memoized", {}).get("calls_per_sec"),
    }
    if tree_length:
        entry["tree_length_sparse_evals_per_sec"] = tree_length.get(
            "sparse_evals_per_sec"
        )
        entry["tree_length_sparse_speedup"] = tree_length.get("sparse_speedup")
        crossover = tree_length.get("crossover", {})
        if crossover:
            entry["tree_length_measured_crossover"] = crossover.get(
                "measured_crossover"
            )
    length_multiply = record.get("length_multiply", {})
    if length_multiply:
        entry["multiply_batched_updates_per_sec"] = length_multiply.get(
            "batched_updates_per_sec"
        )
        entry["multiply_batched_speedup"] = length_multiply.get("batched_speedup")
    oracle_batch = record.get("oracle_batch", {})
    if oracle_batch:
        entry["oracle_batch_rounds_per_sec"] = oracle_batch.get(
            "batched_rounds_per_sec"
        )
        entry["oracle_batch_speedup"] = oracle_batch.get("batched_speedup")
    dynamic_oracle = record.get("dynamic_oracle", {})
    if dynamic_oracle:
        entry["dynamic_oracle_calls_per_sec"] = dynamic_oracle.get("calls_per_sec")
        entry["dynamic_front_speedup"] = dynamic_oracle.get("front", {}).get(
            "batched_speedup"
        )
    prim = record.get("prim_crossover", {})
    if prim:
        entry["prim_crossover"] = prim.get("measured_crossover")
    obs_overhead = record.get("obs_overhead", {})
    if obs_overhead:
        entry["obs_metrics_overhead_pct"] = obs_overhead.get("metrics_overhead_pct")
        entry["obs_trace_overhead_pct"] = obs_overhead.get("trace_overhead_pct")
    durability = record.get("durability", {})
    if durability:
        entry["durable_put_overhead_pct"] = durability.get("put_overhead_pct")
        entry["durable_solve_persist_overhead_pct"] = durability.get(
            "solve_persist", {}
        ).get("overhead_pct")
        entry["fault_point_disabled_ns"] = durability.get("fault_point", {}).get(
            "disabled_ns_per_call"
        )
    return entry


def _prior_history(path: Path) -> List[Dict[str, object]]:
    """Trajectory entries carried over from an existing record file.

    A v1 record (pre-history) contributes one synthesized entry so the
    first v2 write does not discard the measured past; an unreadable or
    foreign file contributes nothing.
    """
    if not path.exists():
        return []
    try:
        with path.open("r", encoding="utf-8") as fh:
            prior = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(prior, dict) or prior.get("schema") not in _KNOWN_SCHEMAS:
        return []
    history = prior.get("history")
    if isinstance(history, list):
        return list(history)
    return [_history_entry(prior)]


def write_core_perf_record(
    path: Union[str, Path] = "BENCH_core.json", scale: str = "quick"
) -> Path:
    """Measure and write the BENCH_core record; returns the written path.

    Appends to the trajectory: prior runs recorded at ``path`` survive in
    the ``history`` list, with the new run's entry appended last.
    """
    path = Path(path)
    record = measure_core_perf(scale)
    record["history"] = _prior_history(path) + [_history_entry(record)]
    return dump_json(record, path)


def main() -> None:  # pragma: no cover - CLI convenience
    import argparse

    parser = argparse.ArgumentParser(description="Write the BENCH_core.json perf record")
    parser.add_argument("--scale", default="quick", choices=("tiny", "quick"))
    parser.add_argument("--output", default="BENCH_core.json")
    args = parser.parse_args()
    path = write_core_perf_record(args.output, scale=args.scale)
    print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    main()
