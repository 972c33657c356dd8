"""Tests for the exact LP baselines (repro.lp.exact)."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.api.registry import default_registry
from repro.api.service import build_instance
from repro.lp.exact import (
    MAX_MEMBERS,
    enumerate_session_trees,
    exact_max_concurrent_flow,
    exact_max_flow,
)
from repro.overlay.session import Session
from repro.routing.dynamic import DynamicRouting
from repro.routing.ip_routing import FixedIPRouting
from repro.topology.generators import complete_topology, ring_topology
from repro.topology.network import PhysicalNetwork
from repro.util.errors import ConfigurationError


class TestEnumeration:
    def test_tree_count_and_usage_shape(self, diamond_network):
        session = Session((0, 1, 3))
        trees, usage = enumerate_session_trees(session, FixedIPRouting(diamond_network))
        assert len(trees) == 3
        assert usage.shape == (3, diamond_network.num_edges)
        # Every tree of a 3-member session uses at least 2 physical links.
        assert np.all(usage.sum(axis=1) >= 2)

    def test_usage_rows_sum_the_fixed_routes_of_each_tree(self, waxman_network):
        # Row t of T @ R is n_e(t): each overlay edge's route counted once.
        routing = FixedIPRouting(waxman_network)
        session = Session((4, 9, 17, 30))
        trees, usage = enumerate_session_trees(session, routing)
        for tree, row in zip(trees, usage):
            expected = np.zeros(waxman_network.num_edges)
            for path in routing.paths_for_pairs(tree).values():
                np.add.at(expected, path.edge_ids, 1.0)
            assert np.array_equal(row, expected)
        assert len(trees) == 16

    def test_member_limit(self, waxman_network):
        session = Session(tuple(range(MAX_MEMBERS + 1)))
        with pytest.raises(ConfigurationError):
            enumerate_session_trees(session, FixedIPRouting(waxman_network))

    def test_dynamic_routing_is_refused(self, diamond_network):
        # The enumerated usage matrix holds the fixed routes, so under
        # dynamic routing both solvers would return the fixed-route
        # optimum labelled as the exact one.
        routing = DynamicRouting(diamond_network)
        sessions = [Session((0, 1, 3))]
        for solve in (
            lambda: enumerate_session_trees(sessions[0], routing),
            lambda: exact_max_flow(sessions, routing),
            lambda: exact_max_concurrent_flow(sessions, routing),
        ):
            with pytest.raises(ConfigurationError, match="fixed IP routing"):
                solve()


class TestExactMaxFlow:
    def test_two_node_session_equals_edge_capacity(self):
        # Two members joined by a single link of capacity 10: the overlay
        # max flow is exactly 10.
        net = PhysicalNetwork(2, [(0, 1, 10.0)])
        solution = exact_max_flow([Session((0, 1))], FixedIPRouting(net))
        assert solution.objective == pytest.approx(10.0)
        assert solution.session_rates[0] == pytest.approx(10.0)

    def test_triangle_session_packing_value(self):
        # A 3-member session on a triangle with unit capacities: the overlay
        # graph is the triangle itself and the spanning-tree packing value
        # is 1.5 (Tutte/Nash-Williams).
        net = complete_topology(3, capacity=1.0)
        solution = exact_max_flow([Session((0, 1, 2))], FixedIPRouting(net))
        assert solution.objective == pytest.approx(1.5)

    def test_ring_session_limited_by_shared_links(self):
        net = ring_topology(4, capacity=4.0)
        solution = exact_max_flow([Session((0, 2))], FixedIPRouting(net))
        # The fixed route between opposite ring nodes uses 2 links of one
        # side only, so the rate is bounded by a single path's capacity.
        assert solution.session_rates[0] == pytest.approx(4.0)

    def test_objective_weights_by_receivers(self):
        # Two sessions with different sizes: the M1 objective weights each
        # session's rate by (|S_i|-1)/(|Smax|-1).
        net = complete_topology(5, capacity=10.0)
        s1 = Session((0, 1, 2))  # 2 receivers
        s2 = Session((3, 4))  # 1 receiver
        solution = exact_max_flow([s1, s2], FixedIPRouting(net))
        expected = solution.session_rates[0] + 0.5 * solution.session_rates[1]
        assert solution.objective == pytest.approx(expected)

    def test_empty_sessions_rejected(self, diamond_network):
        with pytest.raises(ConfigurationError):
            exact_max_flow([], FixedIPRouting(diamond_network))


class TestExactMaxConcurrent:
    def test_single_session_lambda(self):
        net = PhysicalNetwork(2, [(0, 1, 10.0)])
        solution = exact_max_concurrent_flow(
            [Session((0, 1), demand=5.0)], FixedIPRouting(net)
        )
        assert solution.objective == pytest.approx(2.0)  # 10 / 5

    def test_two_sessions_share_capacity(self):
        # Two 2-member sessions sharing one link of capacity 10 with equal
        # demands: each gets 5, lambda = 5 / demand.
        net = PhysicalNetwork(2, [(0, 1, 10.0)])
        sessions = [Session((0, 1), demand=2.0, name="a"), Session((0, 1), demand=2.0, name="b")]
        solution = exact_max_concurrent_flow(sessions, FixedIPRouting(net))
        assert solution.objective == pytest.approx(2.5)
        assert np.allclose(solution.session_rates, 5.0)

    def test_demand_weighting(self):
        # Unequal demands: rates at the optimum are proportional to demands.
        net = PhysicalNetwork(2, [(0, 1, 12.0)])
        sessions = [Session((0, 1), demand=1.0), Session((0, 1), demand=2.0)]
        solution = exact_max_concurrent_flow(sessions, FixedIPRouting(net))
        assert solution.objective == pytest.approx(4.0)
        assert solution.session_rates[0] + solution.session_rates[1] == pytest.approx(12.0)
        assert solution.session_rates[0] * 2 == pytest.approx(solution.session_rates[1], rel=1e-6)

    def test_lambda_never_exceeds_per_session_maxflow(self, waxman_network):
        routing = FixedIPRouting(waxman_network)
        sessions = [Session((0, 5, 9), demand=50.0), Session((2, 11, 20), demand=50.0)]
        concurrent = exact_max_concurrent_flow(sessions, routing)
        for index, session in enumerate(sessions):
            alone = exact_max_flow([session], routing)
            assert (
                concurrent.objective * session.demand
                <= alone.session_rates[0] + 1e-6
            )


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _first_specs_with_lp():
    families = json.loads(REFERENCE.read_text(encoding="utf-8"))["families"]
    firsts = {
        name: next((entry for entry in entries if "lp" in entry), None)
        for name, entries in sorted(families.items())
    }
    return [pytest.param(entry, id=name) for name, entry in firsts.items() if entry]


@pytest.mark.parametrize("entry", _first_specs_with_lp())
def test_reference_lp_optimum_is_reproduced_exactly(entry):
    # The benchmark's ground truth: the fixed-route LP of the spec's
    # instance, solved as the reference file recorded it.
    spec = ScenarioSpec.from_jsonable(entry["spec"])
    network, sessions, _ = build_instance(spec)
    routing = default_registry().build_routing(network, "ip")
    exact = exact_max_concurrent_flow if spec.solver == "max_concurrent_flow" else exact_max_flow
    assert exact(sessions, routing).objective == entry["lp"]
