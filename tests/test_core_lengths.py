"""Tests for the exponential length function and FPTAS parameter helpers."""

import math

import numpy as np
import pytest

from repro.core import lengths as lengths_module
from repro.core.lengths import (
    LengthFunction,
    concurrent_delta_log,
    epsilon_for_ratio,
    maxflow_delta_log,
)
from repro.util.errors import ConfigurationError


class TestEpsilonForRatio:
    def test_maxflow_mapping(self):
        assert epsilon_for_ratio(0.9, 2.0) == pytest.approx(0.05)

    def test_concurrent_mapping(self):
        assert epsilon_for_ratio(0.91, 3.0) == pytest.approx(0.03)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            epsilon_for_ratio(1.0)
        with pytest.raises(ConfigurationError):
            epsilon_for_ratio(0.0)

    def test_invalid_slack(self):
        with pytest.raises(ConfigurationError):
            epsilon_for_ratio(0.9, 0.0)


class TestDeltaLogs:
    def test_maxflow_delta_formula(self):
        eps, smax, route = 0.1, 5, 7.0
        expected = math.log(
            (1 + eps) ** (1 - 1 / eps) / ((smax - 1) * route) ** (1 / eps)
        )
        assert maxflow_delta_log(eps, smax, route) == pytest.approx(expected)

    def test_maxflow_delta_tiny_epsilon_no_overflow(self):
        # epsilon = 0.005 corresponds to the paper's 0.99 column and would
        # underflow a direct float computation of delta.
        value = maxflow_delta_log(0.005, 90, 20.0)
        assert np.isfinite(value)
        assert value < -1000

    def test_concurrent_delta_formula(self):
        eps, edges = 0.1, 200
        expected = (1 / eps) * math.log((1 - eps) / edges)
        assert concurrent_delta_log(eps, edges) == pytest.approx(expected)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            maxflow_delta_log(0.0, 5, 3)
        with pytest.raises(ConfigurationError):
            maxflow_delta_log(0.1, 1, 3)
        with pytest.raises(ConfigurationError):
            maxflow_delta_log(0.1, 5, 0)
        with pytest.raises(ConfigurationError):
            concurrent_delta_log(1.5, 10)
        with pytest.raises(ConfigurationError):
            concurrent_delta_log(0.1, 0)


class TestLengthFunction:
    def test_maxflow_initialisation(self):
        lf = LengthFunction.for_maxflow(10, 0.05, 7, 5.0)
        assert np.allclose(lf.relative, 1.0)
        assert lf.log_offset == pytest.approx(maxflow_delta_log(0.05, 7, 5.0))

    def test_concurrent_initialisation(self):
        caps = np.array([1.0, 2.0, 4.0])
        lf = LengthFunction.for_concurrent(caps, 0.1)
        assert np.allclose(lf.relative, 1.0 / caps)

    def test_online_initialisation(self):
        caps = np.array([10.0, 20.0])
        lf = LengthFunction.for_online(caps)
        assert lf.log_offset == 0.0
        assert np.allclose(lf.relative, 1.0 / caps)

    def test_multiply_updates_selected_edges(self):
        lf = LengthFunction(4, 0.0)
        lf.multiply(np.array([1, 3]), np.array([2.0, 3.0]))
        assert np.allclose(lf.relative, [1.0, 2.0, 1.0, 3.0])

    def test_multiply_batch_accumulates_repeated_edges(self):
        # The whole point of the batched form: a repeated edge id takes
        # the *product* of its factors, where fancy-indexed multiply
        # would keep only the last one.
        lf = LengthFunction(4, 0.0)
        lf.multiply_batch(np.array([1, 1, 3, 1]), np.array([2.0, 3.0, 5.0, 4.0]))
        assert np.allclose(lf.relative, [1.0, 24.0, 1.0, 5.0])

    def test_multiply_batch_matches_sequential_multiply(self):
        # One batched call over concatenated per-step updates must agree
        # with the sequential loop it replaces (same absolute lengths).
        rng = np.random.default_rng(7)
        updates = [
            (
                rng.choice(16, 6, replace=False),
                rng.uniform(1.0, 1.5, 6),
            )
            for _ in range(25)
        ]
        sequential = LengthFunction(16, 0.5)
        for ids, factors in updates:
            sequential.multiply(ids, factors)
        batched = LengthFunction(16, 0.5)
        batched.multiply_batch(
            np.concatenate([ids for ids, _ in updates]),
            np.concatenate([factors for _, factors in updates]),
        )
        absolute = lambda lf: np.log(lf.relative) + lf.log_offset
        assert np.allclose(absolute(sequential), absolute(batched), rtol=1e-12)

    def test_multiply_batch_survives_coalesced_overflow(self):
        # Thousands of factors coalesced onto one edge overflow doubles
        # before the end-of-batch renormalisation; the batch must split
        # and renormalise instead of silently producing NaN/0 lengths.
        batched = LengthFunction(4, 0.0)
        batched.multiply_batch(
            np.zeros(8000, dtype=np.int64), np.full(8000, 1.1)
        )
        assert np.all(np.isfinite(batched.relative))
        sequential = LengthFunction(4, 0.0)
        for _ in range(8000):
            sequential.multiply(np.array([0]), np.array([1.1]))
        assert batched.log_value(batched.relative[0]) == pytest.approx(
            sequential.log_value(sequential.relative[0]), rel=1e-12
        )

    def test_multiply_batch_rejects_non_finite_factor(self):
        lf = LengthFunction(2, 0.0)
        with pytest.raises(ConfigurationError):
            lf.multiply_batch(np.array([0]), np.array([np.inf]))

    def test_multiply_batch_renormalizes(self):
        lf = LengthFunction(2, 0.0)
        lf.multiply_batch(np.array([0] * 10), np.array([1e30] * 10))
        assert lf.relative.max() <= 1e200
        assert lf.log_value(lf.relative[0]) == pytest.approx(
            10 * math.log(1e30), rel=1e-9
        )

    def test_multiply_rejects_nonpositive_factor(self):
        lf = LengthFunction(3, 0.0)
        with pytest.raises(ConfigurationError):
            lf.multiply(np.array([0]), np.array([0.0]))
        with pytest.raises(ConfigurationError):
            lf.multiply_batch(np.array([0, 1]), np.array([1.0, 0.0]))

    def test_multiply_shape_mismatch_rejected(self):
        # One factor must not broadcast over several edges.
        lf = LengthFunction(3, 0.0)
        with pytest.raises(ConfigurationError, match="matching shapes"):
            lf.multiply(np.array([0, 1, 2]), np.array([2.0]))
        assert lf.relative.tolist() == [1.0, 1.0, 1.0]

    def test_multiply_rejects_nan_factor(self):
        lf = LengthFunction(3, 0.0)
        with pytest.raises(ConfigurationError, match="positive and finite"):
            lf.multiply(np.array([0, 1]), np.array([2.0, np.nan]))
        assert lf.relative.tolist() == [1.0, 1.0, 1.0]

    def test_multiply_rejects_infinite_factor(self):
        lf = LengthFunction(3, 0.0)
        with pytest.raises(ConfigurationError, match="positive and finite"):
            lf.multiply(np.array([1]), np.array([np.inf]))
        assert lf.relative.tolist() == [1.0, 1.0, 1.0]
        assert lf.log_offset == 0.0

    def test_multiply_batch_shape_mismatch_rejected(self):
        lf = LengthFunction(3, 0.0)
        with pytest.raises(ConfigurationError):
            lf.multiply_batch(np.array([0, 1]), np.array([2.0]))

    def test_renormalisation_preserves_absolute_values(self):
        lf = LengthFunction(2, -5.0)
        # Grow one edge by a huge factor to force renormalisation.
        for _ in range(50):
            lf.multiply(np.array([0]), np.array([1e10]))
        # Absolute log of edge 0: -5 + 50 * ln(1e10).
        expected = -5.0 + 50 * math.log(1e10)
        assert lf.log_value(lf.relative[0]) == pytest.approx(expected, rel=1e-9)
        assert lf.relative.max() <= 1e200

    def test_at_least_one_threshold(self):
        lf = LengthFunction(2, math.log(0.5))
        assert not lf.at_least_one(1.0)  # absolute value 0.5
        assert lf.at_least_one(2.0)  # absolute value 1.0
        assert lf.at_least_one(4.0)

    def test_log_value_of_zero(self):
        lf = LengthFunction(2, 0.0)
        assert lf.log_value(0.0) == -math.inf

    def test_weighted_sum_log(self):
        lf = LengthFunction(3, math.log(2.0))
        weights = np.array([1.0, 2.0, 3.0])
        expected = math.log(2.0 * weights.sum())
        assert lf.weighted_sum_log(weights) == pytest.approx(expected)

    def test_copy_is_independent(self):
        lf = LengthFunction(2, 0.0)
        clone = lf.copy()
        lf.multiply(np.array([0]), np.array([5.0]))
        assert clone.relative[0] == 1.0

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            LengthFunction(0, 0.0)
        with pytest.raises(ConfigurationError):
            LengthFunction(2, 0.0, relative=np.array([1.0, -1.0]))
        with pytest.raises(ConfigurationError):
            LengthFunction(2, 0.0, relative=np.array([1.0]))
        # An infinite entry would renormalise to [0, nan, 0] with an
        # infinite offset; NaN passes a bare ``<= 0`` test.
        for bad in (np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="positive and finite"):
                LengthFunction(3, 0.0, relative=np.array([1.0, bad, 1.0]))
        # A NaN offset would make at_least_one False forever.
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match="log_offset"):
                LengthFunction(3, bad)

    def test_relative_view_is_readonly(self):
        lf = LengthFunction(2, 0.0)
        with pytest.raises(ValueError):
            lf.relative[0] = 5.0

    @pytest.mark.parametrize("bad", [-1, -4, 4, 7])
    @pytest.mark.parametrize("update", ["multiply", "multiply_batch"])
    def test_out_of_range_edge_id_rejected(self, update, bad):
        # NumPy would wrap -1 round to edge 3 and raise a bare IndexError
        # for 4 or more.
        lf = LengthFunction(4, 0.0)
        with pytest.raises(ConfigurationError, match="edge ids"):
            getattr(lf, update)([1, bad], [2.0, 2.0])
        assert lf.relative.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_multiply_rejects_product_past_double_range(self):
        # A finite factor whose product overflows would leave an infinite
        # length and renormalise every other edge to 0.
        lf = LengthFunction(2, 0.0, relative=np.array([1e200, 1.0]))
        with np.errstate(over="ignore"):
            with pytest.raises(ConfigurationError, match="positive and finite"):
                lf.multiply([0], [1e200])
        assert lf.relative.tolist() == [1e200, 1.0]
        assert lf.log_offset == 0.0

    def test_empty_multiply_is_a_no_op(self):
        lf = LengthFunction(2, 0.0)
        lf.multiply(np.array([], dtype=np.int64), np.array([]))
        assert lf.relative.tolist() == [1.0, 1.0]

    def test_relative_is_one_live_view(self, monkeypatch):
        monkeypatch.setattr(lengths_module, "_RENORM_THRESHOLD", 10.0)
        lf = LengthFunction(3, 0.0)
        view = lf.relative
        assert lf.relative is view
        lf.multiply([1], [4.0])
        assert view.tolist() == [1.0, 4.0, 1.0]
        lf.multiply([1], [4.0])  # 16 > 10: renormalised in place
        assert lf.log_offset == math.log(16.0)
        assert view.tolist() == [1.0 / 16.0, 1.0, 1.0 / 16.0]


def reference_multiply(rel, log_offset, edge_ids, factors, threshold):
    """``LengthFunction.multiply`` before it read only the updated
    entries: fancy-indexed in-place multiply, then renormalise on the
    maximum over every edge.  Returns the new log offset."""
    rel[edge_ids] *= factors
    peak = float(rel.max())
    if peak > threshold:
        log_offset += math.log(peak)
        rel /= peak
    return log_offset


class TestMultiplyMatchesFullMaxReference:
    """The updated-entries renormalisation check is bitwise the full one."""

    @pytest.mark.parametrize("threshold", [None, 1e3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_sequences(self, monkeypatch, seed, threshold):
        if threshold is not None:
            monkeypatch.setattr(lengths_module, "_RENORM_THRESHOLD", threshold)
        limit = lengths_module._RENORM_THRESHOLD
        rng = np.random.default_rng(seed)
        num_edges = 12
        lf = LengthFunction(num_edges, -3.0)
        rel = np.ones(num_edges)
        offset = -3.0
        renormalised = 0
        for _ in range(300):
            size = int(rng.integers(1, 8))
            ids = rng.integers(0, num_edges, size)  # ids may repeat
            factors = rng.uniform(0.5, 3.0, size)  # some factors below 1
            lf.multiply(ids, factors)
            before = offset
            offset = reference_multiply(rel, offset, ids, factors, limit)
            renormalised += offset != before
            assert lf.relative.tobytes() == rel.tobytes()
            assert lf.log_offset == offset
        if threshold is None:
            assert renormalised == 0
        else:
            assert renormalised > 0

    def test_superseded_repeat_past_threshold(self, monkeypatch):
        # With a repeated id the last factor wins; an earlier product above
        # the threshold must not renormalise when no final entry is above.
        monkeypatch.setattr(lengths_module, "_RENORM_THRESHOLD", 1e3)
        lf = LengthFunction(3, 0.0)
        rel = np.ones(3)
        lf.multiply([0, 0], [1e4, 2.0])
        offset = reference_multiply(rel, 0.0, [0, 0], [1e4, 2.0], 1e3)
        assert lf.relative.tobytes() == rel.tobytes()
        assert lf.log_offset == offset == 0.0
