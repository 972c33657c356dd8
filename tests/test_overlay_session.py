"""Tests for repro.overlay.session."""

import numpy as np
import pytest

from repro.api import WorkloadSpec
from repro.overlay.session import Session, random_session
from repro.topology.generators import paper_two_level_topology
from repro.util.errors import InvalidSessionError


class TestSession:
    def test_basic_properties(self):
        s = Session((3, 1, 7), demand=2.0, name="s")
        assert s.size == 3
        assert s.num_receivers == 2
        assert s.source == 3
        assert set(s.receivers) == {1, 7}

    def test_explicit_source(self):
        s = Session((3, 1, 7), source=7)
        assert s.source == 7
        assert set(s.receivers) == {3, 1}

    def test_source_must_be_member(self):
        with pytest.raises(InvalidSessionError):
            Session((1, 2), source=9)

    def test_too_few_members(self):
        with pytest.raises(InvalidSessionError):
            Session((1,))

    def test_duplicate_members(self):
        with pytest.raises(InvalidSessionError):
            Session((1, 2, 1))

    def test_nonpositive_demand(self):
        with pytest.raises(InvalidSessionError):
            Session((1, 2), demand=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_demand(self, value):
        with pytest.raises(InvalidSessionError, match=f"got {value}"):
            Session((1, 2), demand=value)

    def test_validate_against_network(self, diamond_network):
        Session((0, 3)).validate_against(diamond_network)
        with pytest.raises(InvalidSessionError):
            Session((0, 9)).validate_against(diamond_network)

    def test_replicate(self):
        s = Session((1, 2, 3), demand=4.0, name="base")
        copies = s.replicate(3)
        assert len(copies) == 3
        assert all(c.members == s.members for c in copies)
        assert len({c.name for c in copies}) == 3

    def test_replicate_with_demand_override(self):
        copies = Session((1, 2)).replicate(2, demand=0.5)
        assert all(c.demand == 0.5 for c in copies)

    def test_replicate_invalid(self):
        with pytest.raises(InvalidSessionError):
            Session((1, 2)).replicate(0)

    def test_members_coerced_to_int(self):
        s = Session((np.int64(1), np.int64(2)))
        assert all(isinstance(m, int) for m in s.members)


class TestRandomSessions:
    def test_size_and_membership(self, waxman_network):
        s = random_session(waxman_network, 6, seed=1)
        assert s.size == 6
        assert len(set(s.members)) == 6
        s.validate_against(waxman_network)

    def test_deterministic_for_seed(self, waxman_network):
        a = random_session(waxman_network, 5, seed=3)
        b = random_session(waxman_network, 5, seed=3)
        assert a.members == b.members

    def test_size_validation(self, waxman_network):
        with pytest.raises(InvalidSessionError):
            random_session(waxman_network, 1)
        with pytest.raises(InvalidSessionError):
            random_session(waxman_network, waxman_network.num_nodes + 1)

    def test_spread_across_ases(self):
        net = paper_two_level_topology(num_ases=3, routers_per_as=10, seed=5)
        s = random_session(net, 6, seed=2, spread_across_levels=True)
        levels = net.node_levels
        member_levels = {int(levels[m]) for m in s.members}
        assert len(member_levels) == 3  # members drawn from every AS

    def test_no_spread_option(self):
        net = paper_two_level_topology(num_ases=3, routers_per_as=10, seed=5)
        s = random_session(net, 4, seed=2, spread_across_levels=False)
        assert s.size == 4

    def test_random_sessions_batch(self, waxman_network):
        sessions = WorkloadSpec(sizes=(4, 4, 4), seed=9).build(waxman_network)
        assert len(sessions) == 3
        assert all(s.size == 4 for s in sessions)
        assert len({s.name for s in sessions}) == 3
