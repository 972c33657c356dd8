"""Tests for Online-MinCongestion and Random-MinCongestion."""

import numpy as np
import pytest

from repro.core.online import OnlineConfig, OnlineMinCongestion
from repro.core.rounding import RandomMinCongestion
from repro.core.solver import (
    solve_max_concurrent_flow,
    solve_online,
    solve_randomized_rounding,
)
from repro.overlay.session import Session
from repro.routing.ip_routing import FixedIPRouting
from repro.util.errors import ConfigurationError, InvalidSessionError


@pytest.fixture(scope="module")
def fractional_solution(waxman_network):
    routing = FixedIPRouting(waxman_network)
    sessions = [
        Session((0, 4, 9, 13), demand=100.0, name="s1"),
        Session((2, 7, 20), demand=100.0, name="s2"),
    ]
    return solve_max_concurrent_flow(sessions, routing, epsilon=0.08)


class TestOnlineConfig:
    def test_sigma_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            OnlineConfig(sigma=0.0).validate()


class TestOnlineMinCongestion:
    def test_accept_assigns_single_tree(self, waxman_network):
        solver = OnlineMinCongestion(FixedIPRouting(waxman_network))
        tree = solver.accept(Session((0, 4, 9), demand=1.0))
        assert set(tree.members) == {0, 4, 9}
        assert solver.state.oracle_calls == 1
        assert solver.state.max_congestion > 0

    def test_congestion_accumulates(self, waxman_network):
        solver = OnlineMinCongestion(FixedIPRouting(waxman_network))
        session = Session((0, 4, 9), demand=1.0)
        solver.accept(session)
        first = solver.state.max_congestion
        solver.accept(session)
        assert solver.state.max_congestion >= 2 * first - 1e-12

    def test_lengths_steer_later_sessions(self, waxman_network):
        # With a large sigma, repeated copies of the same session must
        # eventually diversify onto more than one distinct tree.
        solver = OnlineMinCongestion(FixedIPRouting(waxman_network), OnlineConfig(sigma=500.0))
        session = Session((0, 4, 9, 13), demand=1.0)
        trees = {solver.accept(copy).canonical_key() for copy in session.replicate(10)}
        assert len(trees) >= 2

    def test_solution_feasible_after_saturation(self, waxman_network):
        sessions = [
            Session((0, 4, 9), demand=1.0, name="a"),
            Session((2, 7, 20), demand=1.0, name="b"),
        ]
        arrivals = [c for s in sessions for c in s.replicate(5)]
        solution = solve_online(arrivals, FixedIPRouting(waxman_network), sigma=20.0)
        assert solution.is_feasible(tolerance=1e-6)
        assert len(solution.sessions) == 2
        assert solution.extra["num_arrivals"] == 10

    def test_grouping_by_members(self, waxman_network):
        session = Session((0, 4, 9), demand=1.0, name="a")
        arrivals = session.replicate(4)
        solution = solve_online(arrivals, FixedIPRouting(waxman_network))
        assert len(solution.sessions) == 1
        ungrouped = solve_online(
            arrivals, FixedIPRouting(waxman_network), group_by_members=False
        )
        assert len(ungrouped.sessions) == 4

    def test_grouped_name_strips_replica_suffix(self, waxman_network):
        session = Session((0, 4, 9), demand=1.0, name="stream")
        solution = solve_online(session.replicate(3), FixedIPRouting(waxman_network))
        assert solution.sessions[0].session.name == "stream"

    def test_grouped_name_with_leading_hash(self, waxman_network):
        # Regression: a base name starting with "#" used to be reported
        # with its replica suffix still attached ("#live#0").
        session = Session((0, 4, 9), demand=1.0, name="#live")
        solution = solve_online(session.replicate(3), FixedIPRouting(waxman_network))
        assert solution.sessions[0].session.name == "#live"

    def test_no_bottleneck_scaling(self, waxman_network):
        config = OnlineConfig(sigma=10.0, apply_no_bottleneck_scaling=True)
        solver = OnlineMinCongestion(FixedIPRouting(waxman_network), config)
        sessions = [Session((0, 4, 9), demand=1.0), Session((2, 7, 20), demand=1.0)]
        scale = solver.prepare_demand_scaling(sessions)
        assert scale > 0
        solver.accept_all(sessions)
        solution = solver.solution()
        assert solution.is_feasible(tolerance=1e-6)

    def test_solution_before_accept_rejected(self, waxman_network):
        solver = OnlineMinCongestion(FixedIPRouting(waxman_network))
        with pytest.raises(ConfigurationError):
            solver.solution()

    def test_member_outside_network_rejected(self, waxman_network):
        solver = OnlineMinCongestion(FixedIPRouting(waxman_network))
        with pytest.raises(Exception):
            solver.accept(Session((0, 10_000)))


def test_online_incremental_accept_matches_accept_all(ring6_network):
    arrivals = [
        Session((0, 1), demand=5.0, name="a"),
        Session((3, 4), demand=5.0, name="b"),
        Session((0, 1), demand=5.0, name="a2"),
        Session((3, 4), demand=5.0, name="b2"),
    ]
    batch = OnlineMinCongestion(FixedIPRouting(ring6_network), OnlineConfig(sigma=10.0))
    batch_trees = batch.accept_all(arrivals)
    one_by_one = OnlineMinCongestion(
        FixedIPRouting(ring6_network), OnlineConfig(sigma=10.0)
    )
    single_trees = [one_by_one.accept(s) for s in arrivals]
    assert [t.canonical_key() for t in batch_trees] == [
        t.canonical_key() for t in single_trees
    ]
    assert np.array_equal(
        batch.state.lengths.relative, one_by_one.state.lengths.relative
    )
    assert np.array_equal(batch.state.congestion, one_by_one.state.congestion)


def test_failed_accept_all_routes_nothing(waxman_network):
    # A sequence with an invalid arrival must leave the solver as it
    # was: no earlier arrival of it queued, no demand scale applied.
    solver = OnlineMinCongestion(
        FixedIPRouting(waxman_network),
        OnlineConfig(apply_no_bottleneck_scaling=True),
    )
    a = Session((0, 4, 9), demand=1.0, name="a")
    b = Session((2, 7), demand=1.0, name="b")
    bad = Session((0, 10_000), demand=1.0, name="bad")
    with pytest.raises(InvalidSessionError):
        solver.accept_all([a, b, bad])
    x = Session((13, 20), demand=1.0, name="x")
    tree = solver.accept(x)
    assert set(tree.members) == {13, 20}
    solution = solver.solution()
    assert [s.session.members for s in solution.sessions] == [x.members]
    assert solution.extra["num_arrivals"] == 1.0
    assert solution.extra["demand_scale"] == 1.0
    assert solver.state.oracle_calls == 1


class TestRandomMinCongestion:
    def test_single_tree_rounding(self, fractional_solution):
        selection = RandomMinCongestion(fractional_solution, seed=1).round_single_tree()
        assert selection.trees_per_session == (1, 1)
        assert selection.max_congestion > 0
        # Scaling demands by l_max must make the selection feasible.
        assert np.all(selection.congestion <= selection.max_congestion + 1e-9)

    def test_select_trees_bounded_by_limit(self, fractional_solution):
        selection = RandomMinCongestion(fractional_solution, seed=2).select_trees(5)
        assert all(n <= 5 for n in selection.trees_per_session)
        assert all(n >= 1 for n in selection.trees_per_session)

    def test_rate_never_exceeds_fractional(self, fractional_solution):
        rounding = RandomMinCongestion(fractional_solution, seed=3)
        for limit in (1, 3, 8):
            selection = rounding.select_trees(limit)
            for rounded, fractional in zip(
                selection.solution.sessions, fractional_solution.sessions
            ):
                assert rounded.rate <= fractional.rate + 1e-9

    def test_more_trees_more_throughput_on_average(self, fractional_solution):
        rounding = RandomMinCongestion(fractional_solution, seed=4)
        few = rounding.average_over_trials(1, trials=10, seed=5)
        many = rounding.average_over_trials(10, trials=10, seed=5)
        assert many["mean_throughput"] >= few["mean_throughput"]

    def test_average_over_trials_keys(self, fractional_solution):
        stats = RandomMinCongestion(fractional_solution, seed=6).average_over_trials(
            2, trials=3
        )
        assert "mean_throughput" in stats
        assert "mean_rate_session_1" in stats
        assert "mean_trees_session_2" in stats

    def test_invalid_parameters(self, fractional_solution):
        rounding = RandomMinCongestion(fractional_solution, seed=7)
        with pytest.raises(ConfigurationError):
            rounding.select_trees(0)
        with pytest.raises(ConfigurationError):
            rounding.average_over_trials(1, trials=0)

    def test_wrapper(self, fractional_solution):
        selection = solve_randomized_rounding(fractional_solution, max_trees=2, seed=8)
        assert selection.solution.algorithm == "Random-MinCongestion"
