"""Engine-equivalence suite: the phase-engine refactor changes nothing.

``repro.core.engine`` replaced the hand-rolled multiplicative-weights
loops inside MaxFlow, MaxConcurrentFlow and Online-MinCongestion.  The
refactor's contract is *bit identity*: the ported solvers must produce
``FlowSolution``s exactly equal — rates, per-tree flows, oracle-call
counters, every ``extra`` entry — to the pre-refactor implementations.

The reference implementations below are verbatim ports of the
pre-engine solver loops, written against the same public building
blocks (``LengthFunction``, ``build_oracles``,
``SessionFlowAccumulator``), so any behavioural drift in the engine
shows up as a fingerprint mismatch here.  They query one oracle at a
time, so they are also the reference for the batched oracle front.
:class:`FreshTreeOracle` is the matching reference for the oracle
itself: no retained Dijkstra, no tree cache, and routes from
:func:`reference_paths` — one single-source Dijkstra and a predecessor
walk per tree source, the pipeline ``ShortestPathQuery`` replaced —
rather than from ``repro.routing``'s route builder.  Coverage: all four
registered solvers x both routing models, at the default renormalisation
threshold and with renormalisation forced mid-run, plus the front's
slice-level bit-identity and its reuse of unchanged sessions' answers.
"""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.core import lengths as lengths_module
from repro.core import maxflow as maxflow_module
from repro.core.engine import (
    BatchedOracleFront,
    ConcurrentPhasePolicy,
    DualObjectiveStop,
    MaxFlowPolicy,
    NormalizedLengthStop,
    OnlineArrivalPolicy,
    PhaseEngine,
    RunToExhaustion,
)
from repro.core.lengths import LengthFunction
from repro.core.maxconcurrent import max_concurrent_flow
from repro.core.maxflow import max_flow
from repro.core.online import online_min_congestion
from repro.core.result import (
    FlowSolution,
    SessionFlowAccumulator,
    SessionResult,
    TreeFlow,
)
from repro.core.rounding import RandomMinCongestion
from repro.overlay.mst import minimum_spanning_tree_pairs
from repro.overlay.oracle import OracleResult, build_oracles
from repro.overlay.session import Session
from repro.overlay.tree import OverlayTree
from repro.routing.base import member_pairs, pair_key
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.routing.paths import UnicastPath
from repro.routing.shortest_path import ShortestPathQuery, shortest_path_tree
from repro.topology.generators import grid_topology
from repro.util.errors import ConfigurationError, InfeasibleProblemError


# ----------------------------------------------------------------------
# reference implementations (the pre-engine loops, verbatim)
# ----------------------------------------------------------------------
def reference_paths(network, pairs, edge_lengths=None):
    """Routes for ``pairs`` from the per-source pipeline.

    One single-source Dijkstra per distinct smaller node, then a walk of
    its predecessor row for each of that node's pairs.  ``edge_lengths``
    ``None`` is the hop metric, which gives the fixed IP routes.  Built
    on :func:`shortest_path_tree` alone, so it shares no route-building
    code with ``repro.routing``.
    """
    by_source = {}
    for u, v in pairs:
        u, v = pair_key(u, v)
        by_source.setdefault(u, []).append(v)
    paths = {}
    for source, destinations in by_source.items():
        distances, predecessors = shortest_path_tree(network, [source], edge_lengths)
        for destination in destinations:
            if not np.isfinite(distances[0, destination]):
                raise InfeasibleProblemError(f"{source} and {destination} disconnected")
            nodes = [destination]
            while nodes[-1] != source:
                nodes.append(int(predecessors[0, nodes[-1]]))
            paths[(source, destination)] = UnicastPath.from_nodes(network, nodes[::-1])
    return paths


def reference_pair_lengths(network, members, edge_lengths):
    """Dynamic routing's MST weights from one distances-only Dijkstra."""
    distances, _ = shortest_path_tree(network, members, edge_lengths)
    sub = distances[:, members]
    return np.maximum(sub, sub.T)


class FreshTreeOracle:
    """The oracle with nothing retained: every call builds a fresh tree.

    Under dynamic routing each call weights the overlay MST with
    :func:`reference_pair_lengths` and realises the chosen overlay edges
    with :func:`reference_paths` under the current lengths.  Under fixed
    routing it routes every member pair once with
    :func:`reference_paths` (hop metric) and weights the MST with the
    incidence mat-vec of those routes.  ``OverlayTree.from_paths`` builds
    the tree: no retained query, no tree cache and no call into the
    routing model.
    """

    def __init__(self, session, routing):
        self.session = session
        self.network = routing.network
        self.dynamic = routing.is_dynamic
        self.members = [int(m) for m in session.members]
        self.call_count = 0
        if not self.dynamic:
            pairs = member_pairs(self.members)
            self.paths = reference_paths(self.network, pairs)
            rows = [r for r, pk in enumerate(pairs) for _ in self.paths[pk].edge_ids]
            cols = [int(e) for pk in pairs for e in self.paths[pk].edge_ids]
            self.incidence = csr_matrix(
                (np.ones(len(rows)), (rows, cols)),
                shape=(len(pairs), self.network.num_edges),
            )

    def pair_lengths(self, lengths):
        """The condensed pair vector Prim takes (``np.triu_indices`` order)."""
        if self.dynamic:
            matrix = reference_pair_lengths(self.network, self.members, lengths)
            return matrix[np.triu_indices(len(self.members), k=1)]
        return self.incidence @ lengths

    def minimum_tree(self, edge_lengths):
        self.call_count += 1
        lengths = np.asarray(edge_lengths, dtype=float)
        members = self.members
        overlay_edges = [
            pair_key(members[i], members[j])
            for i, j in minimum_spanning_tree_pairs(self.pair_lengths(lengths))
        ]
        if self.dynamic:
            paths = reference_paths(self.network, overlay_edges, lengths)
        else:
            paths = self.paths
        tree = OverlayTree.from_paths(
            members, overlay_edges, paths, self.network.num_edges
        )
        return OracleResult(tree=tree, length=tree.length(lengths))

    def max_route_length(self):
        hops = reference_pair_lengths(self.network, self.members, None)
        return int(round(float(hops[np.isfinite(hops)].max())))

    def normalized_length(self, result, max_session_size):
        return result.length * (max_session_size - 1) / (self.session.size - 1)


def fresh_oracles(sessions, routing):
    """:func:`build_oracles` with :class:`FreshTreeOracle`s."""
    return [FreshTreeOracle(s, routing) for s in sessions]


def reference_max_flow(sessions, routing, epsilon, build=build_oracles):
    """Pre-refactor MaxFlow.solve (hand-rolled Table I loop)."""
    capacities = routing.network.capacities
    num_edges = routing.network.num_edges
    oracles = build(sessions, routing)
    max_size = max(s.size for s in sessions)
    longest_route = max(1, max(o.max_route_length() for o in oracles))
    lengths = LengthFunction.for_maxflow(num_edges, epsilon, max_size, longest_route)
    log_delta = lengths.log_offset
    scale_denominator = (math.log1p(epsilon) - log_delta) / math.log1p(epsilon)
    accumulators = [SessionFlowAccumulator(session=s) for s in sessions]
    iterations = 0
    while True:
        iterations += 1
        best_index = -1
        best_norm_length = math.inf
        best_result = None
        for index, oracle in enumerate(oracles):
            result = oracle.minimum_tree(lengths.relative)
            norm = oracle.normalized_length(result, max_size)
            if norm < best_norm_length:
                best_norm_length = norm
                best_index = index
                best_result = result
        if lengths.at_least_one(best_norm_length):
            break
        tree = best_result.tree
        bottleneck = tree.bottleneck_capacity(capacities)
        accumulators[best_index].add(tree, bottleneck)
        used = tree.physical_edges
        factors = 1.0 + epsilon * tree.usage_values * bottleneck / capacities[used]
        lengths.multiply(used, factors)
    scale = 1.0 / scale_denominator
    session_results = tuple(
        SessionResult(session=acc.session, tree_flows=tuple(acc.scaled(scale)))
        for acc in accumulators
    )
    probe = FlowSolution(
        algorithm="MaxFlow", sessions=session_results, network=routing.network
    )
    congestion = probe.max_congestion()
    if congestion > 1.0:
        session_results = tuple(
            SessionResult(
                session=s.session,
                tree_flows=tuple(
                    TreeFlow(tree=tf.tree, flow=tf.flow / congestion)
                    for tf in s.tree_flows
                ),
            )
            for s in session_results
        )
    return FlowSolution(
        algorithm="MaxFlow",
        sessions=session_results,
        network=routing.network,
        epsilon=epsilon,
        oracle_calls=sum(o.call_count for o in oracles),
        extra={
            "iterations": float(iterations),
            "scale_denominator": scale_denominator,
            "longest_route": float(longest_route),
            "routing": "dynamic" if routing.is_dynamic else "fixed",
        },
    )


def reference_max_concurrent_flow(
    sessions, routing, epsilon, prescale_epsilon, build=build_oracles
):
    """Pre-refactor MaxConcurrentFlow.solve (hand-rolled Table III loop)."""
    network = routing.network
    capacities = network.capacities
    num_edges = network.num_edges
    k = len(sessions)

    prescale_calls = 0
    beta = []
    for session in sessions:
        standalone = reference_max_flow([session], routing, prescale_epsilon, build)
        beta.append(standalone.sessions[0].rate)
        prescale_calls += standalone.oracle_calls
    beta = np.asarray(beta, dtype=float)
    demands = np.asarray([s.demand for s in sessions], dtype=float)
    zeta = float(np.min(beta / demands))
    working_demands = demands * (zeta / k)

    oracles = build(sessions, routing)
    lengths = LengthFunction.for_concurrent(capacities, epsilon)
    log_delta = lengths.log_offset
    scale_denominator = -log_delta / math.log1p(epsilon)
    phase_budget = 1 + int(
        math.ceil(
            (2.0 / epsilon)
            * (math.log(num_edges / (1.0 - epsilon)) / math.log1p(epsilon))
        )
    )
    accumulators = [SessionFlowAccumulator(session=s) for s in sessions]
    steps = 0
    phases = 0
    doublings = 0
    phases_since_doubling = 0

    def dual_objective_reached():
        return lengths.weighted_sum_log(capacities) >= 0.0

    while not dual_objective_reached():
        phases += 1
        phases_since_doubling += 1
        for index, oracle in enumerate(oracles):
            remaining = float(working_demands[index])
            while remaining > 0 and not dual_objective_reached():
                steps += 1
                result = oracle.minimum_tree(lengths.relative)
                tree = result.tree
                bottleneck = tree.bottleneck_capacity(capacities)
                amount = min(remaining, bottleneck)
                remaining -= amount
                accumulators[index].add(tree, amount)
                used = tree.physical_edges
                factors = 1.0 + epsilon * tree.usage_values * amount / capacities[used]
                lengths.multiply(used, factors)
        if phases_since_doubling >= phase_budget and not dual_objective_reached():
            working_demands = working_demands * 2.0
            doublings += 1
            phases_since_doubling = 0

    scale = 1.0 / scale_denominator
    session_results = tuple(
        SessionResult(session=acc.session, tree_flows=tuple(acc.scaled(scale)))
        for acc in accumulators
    )
    main_calls = sum(o.call_count for o in oracles)
    solution = FlowSolution(
        algorithm="MaxConcurrentFlow",
        sessions=session_results,
        network=network,
        epsilon=epsilon,
        oracle_calls=main_calls + prescale_calls,
    )
    congestion = solution.max_congestion()
    if congestion > 1.0:
        session_results = tuple(
            SessionResult(
                session=s.session,
                tree_flows=tuple(
                    TreeFlow(tree=tf.tree, flow=tf.flow / congestion)
                    for tf in s.tree_flows
                ),
            )
            for s in session_results
        )
    return FlowSolution(
        algorithm="MaxConcurrentFlow",
        sessions=session_results,
        network=network,
        epsilon=epsilon,
        oracle_calls=main_calls + prescale_calls,
        extra={
            "phases": float(phases),
            "steps": float(steps),
            "doublings": float(doublings),
            "main_oracle_calls": float(main_calls),
            "prescale_oracle_calls": float(prescale_calls),
            "zeta_upper_bound": zeta,
            "routing": "dynamic" if routing.is_dynamic else "fixed",
        },
    )


def reference_online_assignments(arrivals, routing, sigma, build=build_oracles):
    """Pre-refactor online accept loop: per-arrival (tree key, lmax)."""
    network = routing.network
    capacities = network.capacities
    lengths = LengthFunction.for_online(capacities)
    congestion = np.zeros(network.num_edges, dtype=float)
    oracle_by_members = {}
    trail = []
    for session in arrivals:
        key = tuple(sorted(session.members))
        oracle = oracle_by_members.get(key)
        if oracle is None:
            oracle = build([session], routing)[0]
            oracle_by_members[key] = oracle
        result = oracle.minimum_tree(lengths.relative)
        tree = result.tree
        used = tree.physical_edges
        load = tree.usage_values * session.demand / capacities[used]
        lengths.multiply(used, 1.0 + sigma * load)
        congestion[used] += load
        trail.append((tree.canonical_key(), float(congestion.max())))
    return trail


def online_trail(arrivals, routing, sigma):
    """Per-arrival (tree key, lmax) of :func:`online_min_congestion`.

    Ungrouped, every arrival is its own session with its one tree, in
    arrival order; the engine's congestion events carry ``l_max`` after
    each arrival.
    """
    solution = online_min_congestion(
        arrivals, routing, sigma=sigma, group_by_members=False
    )
    keys = [s.tree_flows[0].tree.canonical_key() for s in solution.sessions]
    lmaxes = [
        e["max_congestion"]
        for e in solution.instrumentation["events"]
        if e["kind"] == "congestion"
    ]
    return list(zip(keys, lmaxes))


def fingerprint(solution):
    """Everything the paper reports about a solution, exactly."""
    return {
        "algorithm": solution.algorithm,
        "epsilon": solution.epsilon,
        "oracle_calls": solution.oracle_calls,
        "rates": [s.rate for s in solution.sessions],
        "names": [s.session.name for s in solution.sessions],
        "num_trees": solution.num_trees_per_session,
        "flows": [
            sorted((tf.tree.canonical_key(), tf.flow) for tf in s.tree_flows)
            for s in solution.sessions
        ],
        "extra": dict(solution.extra),
    }


@pytest.fixture(scope="module")
def equivalence_sessions():
    return [
        Session((0, 4, 9, 13), demand=100.0, name="s1"),
        Session((2, 7, 20), demand=100.0, name="s2"),
    ]


@pytest.mark.parametrize("routing_cls", [FixedIPRouting, DynamicRouting])
class TestEngineEquivalence:
    def test_max_flow_bit_identical(
        self, waxman_network, equivalence_sessions, routing_cls
    ):
        reference = reference_max_flow(
            equivalence_sessions, routing_cls(waxman_network), epsilon=0.15
        )
        ported = max_flow(
            equivalence_sessions, routing_cls(waxman_network), epsilon=0.15
        )
        assert fingerprint(ported) == fingerprint(reference)
        assert ported.instrumentation is not None
        assert ported.instrumentation["steps"] == int(reference.extra["iterations"])

    def test_max_concurrent_flow_bit_identical(
        self, waxman_network, equivalence_sessions, routing_cls
    ):
        reference = reference_max_concurrent_flow(
            equivalence_sessions,
            routing_cls(waxman_network),
            epsilon=0.25,
            prescale_epsilon=0.25,
        )
        ported = max_concurrent_flow(
            equivalence_sessions,
            routing_cls(waxman_network),
            epsilon=0.25,
            prescale_epsilon=0.25,
        )
        assert fingerprint(ported) == fingerprint(reference)
        assert ported.instrumentation["phases"] == int(reference.extra["phases"])

    def test_online_bit_identical(
        self, waxman_network, equivalence_sessions, routing_cls
    ):
        arrivals = [
            copy
            for session in equivalence_sessions
            for copy in session.replicate(3, demand=1.0)
        ]
        reference_trail = reference_online_assignments(
            arrivals, routing_cls(waxman_network), sigma=50.0
        )
        # Congestion snapshots (one per arrival) ride in instrumentation.
        assert online_trail(arrivals, routing_cls(waxman_network), 50.0) == (
            reference_trail
        )
        solution = online_min_congestion(
            arrivals, routing_cls(waxman_network), sigma=50.0
        )
        assert solution.oracle_calls == len(arrivals)
        assert solution.extra["max_congestion"] == reference_trail[-1][1]

    def test_randomized_rounding_bit_identical(
        self, waxman_network, equivalence_sessions, routing_cls
    ):
        from repro.api.registry import default_registry

        reference_fractional = reference_max_concurrent_flow(
            equivalence_sessions,
            routing_cls(waxman_network),
            epsilon=0.25,
            prescale_epsilon=0.25,
        )
        reference = RandomMinCongestion(
            reference_fractional, seed=17
        ).select_trees(2).solution
        ported = default_registry().solver("randomized_rounding")(
            equivalence_sessions,
            routing_cls(waxman_network),
            epsilon=0.25,
            prescale_epsilon=0.25,
            max_trees=2,
            seed=17,
        )
        ref_fp = fingerprint(reference)
        ported_fp = fingerprint(ported)
        # The rounding selection carries no solver extra; compare the
        # flow decomposition and counters.
        ref_fp.pop("extra")
        ported_fp.pop("extra")
        assert ported_fp == ref_fp


@pytest.mark.parametrize("routing_cls", [FixedIPRouting, DynamicRouting])
def test_fresh_oracle_builds_no_route_in_repro_routing(
    monkeypatch, waxman_network, equivalence_sessions, routing_cls
):
    # A reference that called the route builder would compare it with
    # itself.
    def forbidden(*args, **kwargs):
        raise AssertionError("the reference called repro.routing's route builder")

    for owner, name in (
        (ShortestPathQuery, "__init__"),
        (ShortestPathQuery, "run"),
        (DynamicRouting, "pair_lengths"),
        (DynamicRouting, "pair_lengths_from_query"),
        (DynamicRouting, "paths_for_pairs"),
        (FixedIPRouting, "pair_lengths"),
        (FixedIPRouting, "paths_for_pairs"),
    ):
        monkeypatch.setattr(owner, name, forbidden)
    lengths = np.random.default_rng(12).uniform(0.01, 5.0, waxman_network.num_edges)
    for session in equivalence_sessions:
        oracle = FreshTreeOracle(session, routing_cls(waxman_network))
        assert oracle.max_route_length() >= 1
        assert oracle.minimum_tree(lengths).length > 0


# Online lengths start at 1/c = 0.01 and grow about 3x over the six
# arrivals; the other solvers' relative lengths grow past 1e5.
FORCED_RENORM_THRESHOLD = {
    "max_flow": 1e3,
    "max_concurrent_flow": 1e3,
    "randomized_rounding": 1e3,
    "online": 0.02,
}


@pytest.mark.parametrize("routing_cls", [FixedIPRouting, DynamicRouting])
@pytest.mark.parametrize("solver", sorted(FORCED_RENORM_THRESHOLD))
def test_bit_identical_across_forced_renormalisation(
    monkeypatch, waxman_network, equivalence_sessions, solver, routing_cls
):
    # A renormalisation rescales every edge at once — the round where
    # every snapshot compare of the batched front fires.  The default
    # threshold (1e200) is never reached on these instances, so lower it.
    monkeypatch.setattr(
        lengths_module, "_RENORM_THRESHOLD", FORCED_RENORM_THRESHOLD[solver]
    )
    moved = []
    renormalize = LengthFunction._renormalize

    def recording_renormalize(self):
        before = self.log_offset
        renormalize(self)
        if self.log_offset != before:
            moved.append(self)

    monkeypatch.setattr(LengthFunction, "_renormalize", recording_renormalize)
    getattr(TestEngineEquivalence(), f"test_{solver}_bit_identical")(
        waxman_network, equivalence_sessions, routing_cls
    )
    # Both the reference loop's and the engine's length functions moved.
    assert len({id(lengths) for lengths in moved}) >= 2


class TestBatchedOracleFront:
    def test_batched_rounds_bit_identical_to_loop(
        self, waxman_network, equivalence_sessions
    ):
        # Every MaxFlow round goes through the front; the reference loop
        # queries one oracle at a time.
        batched = max_flow(
            equivalence_sessions, FixedIPRouting(waxman_network), epsilon=0.15
        )
        looped = reference_max_flow(
            equivalence_sessions, FixedIPRouting(waxman_network), epsilon=0.15
        )
        assert fingerprint(batched) == fingerprint(looped)
        assert batched.instrumentation["batched_rounds"] > 0
        assert batched.instrumentation["per_session_rounds"] == 0

    def test_stacked_matvec_matches_per_oracle_products(
        self, waxman_network, equivalence_sessions
    ):
        routing = FixedIPRouting(waxman_network)
        oracles = build_oracles(equivalence_sessions, routing)
        front = BatchedOracleFront(oracles)
        assert front.mode == "fixed"
        lengths = np.random.default_rng(3).uniform(0.01, 5.0, waxman_network.num_edges)
        batched = front.query(range(len(oracles)), lengths)
        for (index, result), oracle in zip(batched, oracles):
            direct = oracle.minimum_tree(lengths)
            assert result.tree == direct.tree
            assert result.length == direct.length

    def test_dynamic_routing_is_batched_and_bit_identical(
        self, waxman_network, equivalence_sessions
    ):
        # One union-of-members Dijkstra serves the whole round; results
        # must equal each oracle's own minimum_tree exactly.
        routing = DynamicRouting(waxman_network)
        oracles = build_oracles(equivalence_sessions, routing)
        front = BatchedOracleFront(oracles)
        assert front.mode == "dynamic"
        lengths = np.random.default_rng(3).uniform(0.01, 5.0, waxman_network.num_edges)
        results = front.query(range(len(oracles)), lengths)
        assert [index for index, _ in results] == [0, 1]
        direct_oracles = build_oracles(equivalence_sessions, routing)
        for (_, result), direct_oracle in zip(results, direct_oracles):
            direct = direct_oracle.minimum_tree(lengths)
            assert result.tree == direct.tree
            assert result.length == direct.length

    def test_front_rejects_mixed_routing_models(
        self, waxman_network, equivalence_sessions
    ):
        # A mixed fixed/dynamic oracle set has no shared batched pass,
        # and no solver builds one.
        mixed = [
            build_oracles([equivalence_sessions[0]], FixedIPRouting(waxman_network))[0],
            build_oracles([equivalence_sessions[1]], DynamicRouting(waxman_network))[0],
        ]
        with pytest.raises(ConfigurationError):
            BatchedOracleFront(mixed)
        with pytest.raises(ConfigurationError):
            BatchedOracleFront([])


def corner_sessions():
    """Four pairwise-disjoint corner sessions on a 6x6 grid plus one that
    crosses three of them: footprints that are partly disjoint."""
    return [
        Session((0, 1, 7, 8), name="nw"),
        Session((4, 5, 10, 11), name="ne"),
        Session((24, 25, 30, 31), name="sw"),
        Session((28, 29, 34, 35), name="se"),
        Session((7, 11, 25), name="mid"),
    ]


def prim_runs(oracle):
    return oracle.cache_hits + oracle.cache_misses


class TestFrontAnswerReuse:
    def test_max_flow_reuses_answers_and_matches_reference(self, monkeypatch):
        network = grid_topology(6, 6, capacity=10.0)
        sessions = corner_sessions()
        built = []

        def recording_build(*args):
            oracles = build_oracles(*args)
            built.extend(oracles)
            return oracles

        monkeypatch.setattr(maxflow_module, "build_oracles", recording_build)
        ported = max_flow(sessions, FixedIPRouting(network), epsilon=0.15)
        reference = reference_max_flow(sessions, FixedIPRouting(network), 0.15)
        assert fingerprint(ported) == fingerprint(reference)
        assert sum(prim_runs(o) for o in built) < sum(o.call_count for o in built)

    def test_only_sessions_crossing_a_changed_edge_rerun(self):
        network = grid_topology(6, 6, capacity=10.0)
        sessions = corner_sessions()
        routing = FixedIPRouting(network)
        oracles = build_oracles(sessions, routing)
        front = BatchedOracleFront(oracles)
        everyone = range(len(oracles))
        lengths = np.random.default_rng(5).uniform(0.5, 2.0, network.num_edges)
        front.query(everyone, lengths)

        footprints = [set(o.covered_edges().tolist()) for o in oracles]
        edge = min(footprints[0] - set().union(*footprints[1:]))
        runs = [prim_runs(o) for o in oracles]
        calls = [o.call_count for o in oracles]
        raised = lengths.copy()
        raised[edge] *= 3.0
        results = front.query(everyone, raised)

        assert [prim_runs(o) - r for o, r in zip(oracles, runs)] == [1, 0, 0, 0, 0]
        assert [o.call_count - c for o, c in zip(oracles, calls)] == [1] * 5
        for (_, result), fresh in zip(results, build_oracles(sessions, routing)):
            direct = fresh.minimum_tree(raised)
            assert result.tree == direct.tree
            assert result.length == direct.length

    def test_in_place_mutation_between_rounds_is_seen(self):
        network = grid_topology(6, 6, capacity=10.0)
        sessions = corner_sessions()
        routing = FixedIPRouting(network)
        front = BatchedOracleFront(build_oracles(sessions, routing))
        rng = np.random.default_rng(9)
        lengths = rng.uniform(0.5, 2.0, network.num_edges)
        front.query(range(len(sessions)), lengths)
        lengths[:] = rng.uniform(0.5, 2.0, network.num_edges)
        results = front.query(range(len(sessions)), lengths)
        for (_, result), fresh in zip(results, build_oracles(sessions, routing)):
            direct = fresh.minimum_tree(lengths)
            assert result.tree == direct.tree
            assert result.length == direct.length


class TestRouteConstantsPerTree:
    """The step policies' per-tree route constants equal their formulas."""

    def test_max_flow_route_action_cached_per_tree(
        self, waxman_network, equivalence_sessions
    ):
        capacities = waxman_network.capacities
        epsilon = 0.15
        max_size = max(s.size for s in equivalence_sessions)
        oracles = build_oracles(equivalence_sessions, FixedIPRouting(waxman_network))
        engine = PhaseEngine(
            oracles=oracles,
            lengths=LengthFunction.for_maxflow(
                waxman_network.num_edges, epsilon, max_size, 5
            ),
            capacities=capacities,
            policy=MaxFlowPolicy(epsilon=epsilon, max_session_size=max_size),
            stopping=NormalizedLengthStop(),
        )
        actions = {}
        routed = 0
        while (action := engine.step()) is not None:
            routed += 1
            tree = action.tree
            bottleneck = tree.bottleneck_capacity(capacities)
            used = tree.physical_edges
            factors = 1.0 + epsilon * tree.usage_values * bottleneck / capacities[used]
            assert action.amount == bottleneck
            assert action.factors.tobytes() == factors.tobytes()
            assert not action.factors.flags.writeable
            assert actions.setdefault((action.index, tree), action) is action
        assert len(actions) < routed

    def test_concurrent_bottleneck_cached_per_tree(
        self, waxman_network, equivalence_sessions
    ):
        capacities = waxman_network.capacities
        epsilon = 0.2
        policy = ConcurrentPhasePolicy(
            epsilon=epsilon,
            working_demands=np.array([30.0, 20.0]),
            phase_budget=50,
        )
        engine = PhaseEngine(
            oracles=build_oracles(equivalence_sessions, FixedIPRouting(waxman_network)),
            lengths=LengthFunction.for_concurrent(capacities, epsilon),
            capacities=capacities,
            policy=policy,
            stopping=DualObjectiveStop(capacities),
        )
        trees = set()
        routed = 0
        while (action := engine.step()) is not None:
            routed += 1
            tree = action.tree
            trees.add(tree)
            used = tree.physical_edges
            factors = 1.0 + epsilon * tree.usage_values * action.amount / capacities[used]
            assert action.amount <= tree.bottleneck_capacity(capacities)
            assert action.factors.tobytes() == factors.tobytes()
        assert len(trees) < routed
        assert set(policy._constants) == trees
        for tree, constants in policy._constants.items():
            used = tree.physical_edges
            assert constants.bottleneck == tree.bottleneck_capacity(capacities)
            scaled_usage = epsilon * tree.usage_values
            assert constants.scaled_usage.tobytes() == scaled_usage.tobytes()
            assert constants.capacities.tobytes() == capacities[used].tobytes()
            assert not constants.scaled_usage.flags.writeable
            assert not constants.capacities.flags.writeable

    def test_online_route_action_cached_per_tree(
        self, waxman_network, equivalence_sessions
    ):
        capacities = waxman_network.capacities
        sigma, scale = 10.0, 0.01
        arrivals, indices = [], []
        for copy in range(6):
            for index, session in enumerate(equivalence_sessions):
                demand = 40.0 if copy % 2 else session.demand
                arrivals.append(Session(session.members, demand=demand))
                indices.append(index)
        engine = PhaseEngine(
            oracles=build_oracles(equivalence_sessions, FixedIPRouting(waxman_network)),
            lengths=LengthFunction.for_online(capacities),
            capacities=capacities,
            policy=OnlineArrivalPolicy(sigma, arrivals, indices, scale),
            stopping=RunToExhaustion(),
            accumulate_flows=False,
            track_congestion=True,
        )
        actions = {}
        routed = 0
        while (action := engine.step()) is not None:
            session = arrivals[routed]
            routed += 1
            tree = action.tree
            used = tree.physical_edges
            load = tree.usage_values * (session.demand * scale) / capacities[used]
            assert action.index == indices[routed - 1]
            assert action.amount == session.demand
            assert action.congestion_delta.tobytes() == load.tobytes()
            assert action.factors.tobytes() == (1.0 + sigma * load).tobytes()
            assert not action.factors.flags.writeable
            assert not action.congestion_delta.flags.writeable
            key = (action.index, tree, session.demand)
            assert actions.setdefault(key, action) is action
        assert routed == len(arrivals)
        assert len(actions) < routed
