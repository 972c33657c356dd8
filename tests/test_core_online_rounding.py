"""Tests for Online-MinCongestion and Random-MinCongestion."""

import numpy as np
import pytest

from repro.api import solve_instance
from repro.core.engine import PhaseEngine
from repro.core.online import online_min_congestion
from repro.core.rounding import RandomMinCongestion
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
    return solve_instance("max_concurrent_flow", sessions, routing, {"epsilon": 0.08})


def _congestion_trail(solution):
    """``l_max`` after each arrival, from the engine's congestion events."""
    return [
        e["max_congestion"]
        for e in solution.instrumentation["events"]
        if e["kind"] == "congestion"
    ]


class TestOnlineConfig:
    def test_sigma_must_be_positive(self, waxman_network):
        with pytest.raises(ConfigurationError):
            online_min_congestion(
                [Session((0, 4, 9), demand=1.0)],
                FixedIPRouting(waxman_network),
                sigma=0.0,
            )

    def test_sigma_must_be_finite(self, monkeypatch, waxman_network):
        # A non-finite sigma is named before any oracle is built, not
        # found later as a bad length-update factor.
        from repro.core import online as online_module

        built = []
        monkeypatch.setattr(
            online_module, "MinimumOverlayTreeOracle", lambda *args: built.append(args)
        )
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=f"sigma .* got {sigma}"):
                online_min_congestion(
                    [Session((0, 4, 9), demand=1.0)],
                    FixedIPRouting(waxman_network),
                    sigma=sigma,
                )
        assert built == []


class TestOnlineMinCongestion:
    def test_accept_assigns_single_tree(self, waxman_network):
        solution = online_min_congestion(
            [Session((0, 4, 9), demand=1.0)], FixedIPRouting(waxman_network)
        )
        [result] = solution.sessions
        [tree_flow] = result.tree_flows
        assert set(tree_flow.tree.members) == {0, 4, 9}
        assert solution.oracle_calls == 1
        assert solution.extra["max_congestion"] > 0

    def test_congestion_accumulates(self, waxman_network):
        session = Session((0, 4, 9), demand=1.0)
        solution = online_min_congestion(
            [session, session], FixedIPRouting(waxman_network)
        )
        first, second = _congestion_trail(solution)
        assert second >= 2 * first - 1e-12

    def test_lengths_steer_later_sessions(self, waxman_network):
        # With a large sigma, repeated copies of the same session must
        # eventually diversify onto more than one distinct tree.
        session = Session((0, 4, 9, 13), demand=1.0)
        solution = online_min_congestion(
            session.replicate(10), FixedIPRouting(waxman_network), sigma=500.0
        )
        assert solution.sessions[0].num_trees >= 2

    def test_one_oracle_per_member_set_in_first_arrival_order(
        self, monkeypatch, waxman_network
    ):
        from repro.core import online as online_module

        built = []
        oracle_class = online_module.MinimumOverlayTreeOracle

        def recording_oracle(session, routing):
            built.append(session.name)
            return oracle_class(session, routing)

        monkeypatch.setattr(online_module, "MinimumOverlayTreeOracle", recording_oracle)
        a = Session((0, 4, 9), demand=1.0, name="a")
        b = Session((9, 2, 7), demand=1.0, name="b")
        a_again = Session((9, 0, 4), demand=1.0, name="a2")
        solution = online_min_congestion(
            [b, a, a_again, b], FixedIPRouting(waxman_network)
        )
        assert built == ["b", "a"]
        assert solution.oracle_calls == 4
        assert [s.session.name for s in solution.sessions] == ["b", "a"]

    def test_solution_feasible_after_saturation(self, waxman_network):
        sessions = [
            Session((0, 4, 9), demand=1.0, name="a"),
            Session((2, 7, 20), demand=1.0, name="b"),
        ]
        arrivals = [c for s in sessions for c in s.replicate(5)]
        solution = solve_instance(
            "online", arrivals, FixedIPRouting(waxman_network), {"sigma": 20.0}
        )
        assert solution.is_feasible(tolerance=1e-6)
        assert len(solution.sessions) == 2
        assert solution.extra["num_arrivals"] == 10

    def test_grouping_by_members(self, waxman_network):
        session = Session((0, 4, 9), demand=1.0, name="a")
        arrivals = session.replicate(4)
        solution = solve_instance("online", arrivals, FixedIPRouting(waxman_network))
        assert len(solution.sessions) == 1
        ungrouped = solve_instance(
            "online",
            arrivals,
            FixedIPRouting(waxman_network),
            {"group_by_members": False},
        )
        assert len(ungrouped.sessions) == 4

    def test_grouped_name_strips_replica_suffix(self, waxman_network):
        session = Session((0, 4, 9), demand=1.0, name="stream")
        solution = solve_instance(
            "online", session.replicate(3), FixedIPRouting(waxman_network)
        )
        assert solution.sessions[0].session.name == "stream"

    def test_grouped_name_with_leading_hash(self, waxman_network):
        # Regression: a base name starting with "#" used to be reported
        # with its replica suffix still attached ("#live#0").
        session = Session((0, 4, 9), demand=1.0, name="#live")
        solution = solve_instance(
            "online", session.replicate(3), FixedIPRouting(waxman_network)
        )
        assert solution.sessions[0].session.name == "#live"

    def test_no_bottleneck_scaling(self, waxman_network):
        sessions = [Session((0, 4, 9), demand=1.0), Session((2, 7, 20), demand=1.0)]
        solution = online_min_congestion(
            sessions,
            FixedIPRouting(waxman_network),
            apply_no_bottleneck_scaling=True,
        )
        # scale * max dem * |Smax| / min c_e == 1 / (2k): scale * 3 / c == 1 / 4.
        min_cap = float(np.min(waxman_network.capacities))
        assert solution.extra["demand_scale"] == pytest.approx(min_cap / 12.0)
        assert solution.is_feasible(tolerance=1e-6)

    def test_solution_before_accept_rejected(self, waxman_network):
        # No arrivals, no solution.
        with pytest.raises(ConfigurationError):
            online_min_congestion([], FixedIPRouting(waxman_network))

    def test_member_outside_network_rejected(self, waxman_network):
        with pytest.raises(InvalidSessionError):
            online_min_congestion(
                [Session((0, 10_000))], FixedIPRouting(waxman_network)
            )


def test_failed_accept_all_routes_nothing(monkeypatch, waxman_network):
    # Every arrival is validated before the first one is routed: a
    # sequence with an invalid arrival raises before any engine step.
    steps = []
    step = PhaseEngine.step
    monkeypatch.setattr(
        PhaseEngine, "step", lambda self: steps.append(1) or step(self)
    )
    a = Session((0, 4, 9), demand=1.0, name="a")
    b = Session((2, 7), demand=1.0, name="b")
    bad = Session((0, 10_000), demand=1.0, name="bad")
    with pytest.raises(InvalidSessionError):
        online_min_congestion(
            [a, b, bad],
            FixedIPRouting(waxman_network),
            apply_no_bottleneck_scaling=True,
        )
    assert steps == []
    online_min_congestion([a, b], FixedIPRouting(waxman_network))
    assert len(steps) == 3  # two routed arrivals, then the policy is done


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

    def test_wrapper(self, waxman_network, fractional_solution):
        # The registered solver is the fractional solve plus select_trees.
        sessions = [s.session for s in fractional_solution.sessions]
        wrapped = solve_instance(
            "randomized_rounding",
            sessions,
            FixedIPRouting(waxman_network),
            {"epsilon": 0.08, "max_trees": 2, "seed": 8},
        )
        direct = RandomMinCongestion(fractional_solution, seed=8).select_trees(2)
        assert wrapped.algorithm == "Random-MinCongestion"
        assert wrapped.summary() == direct.solution.summary()
