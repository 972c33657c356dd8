"""Exponential edge-length functions with underflow-safe scaling.

The Garg–Könemann style algorithms initialise every edge length to a very
small constant ``delta`` and grow lengths multiplicatively.  For the
approximation ratios the paper evaluates (up to 0.99, i.e. epsilon down to
0.005) the textbook initialisation

    delta = (1 + eps)^(1 - 1/eps) / ((|Smax| - 1) * U)^(1/eps)

underflows IEEE doubles (the exponent ``1/eps`` reaches 200).  The length
function therefore stores *relative* lengths together with a scalar
``log_offset``: the true length of edge ``e`` is
``exp(log_offset) * rel[e]``.  Relative lengths are what the spanning-tree
oracle needs (a common positive factor never changes a minimum spanning
tree), and the only places absolute values matter — the termination tests
``d(t) >= 1`` and ``sum_e c_e d_e >= 1`` — are evaluated in log space.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.util.errors import ConfigurationError

# Renormalise the relative lengths whenever their maximum exceeds this, so
# products of thousands of (1 + eps) factors never overflow.
_RENORM_THRESHOLD = 1e200


def epsilon_for_ratio(ratio: float, slack_factor: float = 2.0) -> float:
    """Map a target approximation ratio to the FPTAS parameter ``epsilon``.

    The paper's guarantees are ``(1 - 2 eps)`` for MaxFlow (Lemma 3) and
    ``(1 - 3 eps)`` for MaxConcurrentFlow (Lemma 5); ``slack_factor``
    selects which of the two is used.
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigurationError(f"approximation ratio must be in (0, 1), got {ratio}")
    if slack_factor <= 0:
        raise ConfigurationError(f"slack_factor must be positive, got {slack_factor}")
    return (1.0 - ratio) / slack_factor


def maxflow_delta_log(epsilon: float, max_session_size: int, longest_route: float) -> float:
    """``ln(delta)`` for the MaxFlow initialisation (Lemma 3).

    ``delta = (1+eps)^(1 - 1/eps) / ((|Smax| - 1) U)^(1/eps)``.
    """
    if epsilon <= 0 or epsilon >= 1:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_session_size < 2:
        raise ConfigurationError("max_session_size must be at least 2")
    if longest_route < 1:
        raise ConfigurationError("longest_route must be at least 1")
    base = (max_session_size - 1) * float(longest_route)
    return (1.0 - 1.0 / epsilon) * math.log1p(epsilon) - (1.0 / epsilon) * math.log(base)


def concurrent_delta_log(epsilon: float, num_edges: int) -> float:
    """``ln(delta)`` for the MaxConcurrentFlow initialisation (Lemma 5).

    ``delta = ((1 - eps) / |E|)^(1/eps)``.
    """
    if epsilon <= 0 or epsilon >= 1:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if num_edges < 1:
        raise ConfigurationError("num_edges must be at least 1")
    return (1.0 / epsilon) * (math.log1p(-epsilon) - math.log(num_edges))


class LengthFunction:
    """Per-edge lengths ``d_e = exp(log_offset) * rel_e`` with safe updates."""

    def __init__(
        self,
        num_edges: int,
        log_offset: float,
        relative: Optional[np.ndarray] = None,
    ) -> None:
        if num_edges < 1:
            raise ConfigurationError("num_edges must be positive")
        self._num_edges = int(num_edges)
        self._log_offset = float(log_offset)
        if relative is None:
            self._rel = np.ones(num_edges, dtype=float)
        else:
            rel = np.asarray(relative, dtype=float).copy()
            if rel.shape != (num_edges,):
                raise ConfigurationError(
                    f"relative lengths must have shape ({num_edges},), got {rel.shape}"
                )
            if np.any(rel <= 0):
                raise ConfigurationError("relative lengths must be strictly positive")
            self._rel = rel
        self._renormalize()

    # ------------------------------------------------------------------
    # constructors matching the paper's initialisations
    # ------------------------------------------------------------------
    @classmethod
    def for_maxflow(
        cls,
        num_edges: int,
        epsilon: float,
        max_session_size: int,
        longest_route: float,
    ) -> "LengthFunction":
        """MaxFlow initialisation ``d_e = delta`` for every edge (Table I line 1)."""
        return cls(num_edges, maxflow_delta_log(epsilon, max_session_size, longest_route))

    @classmethod
    def for_concurrent(
        cls, capacities: Sequence[float], epsilon: float
    ) -> "LengthFunction":
        """MaxConcurrentFlow initialisation ``d_e = delta / c_e`` (Table III line 1)."""
        caps = np.asarray(capacities, dtype=float)
        return cls(
            caps.shape[0],
            concurrent_delta_log(epsilon, caps.shape[0]),
            relative=1.0 / caps,
        )

    @classmethod
    def for_online(cls, capacities: Sequence[float]) -> "LengthFunction":
        """Online initialisation ``d_e = delta / c_e`` (Table VI line 1).

        The online algorithm has no absolute stopping threshold, so the
        value of ``delta`` never influences its decisions; we use
        ``delta = 1``.
        """
        caps = np.asarray(capacities, dtype=float)
        return cls(caps.shape[0], 0.0, relative=1.0 / caps)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of edges covered by the length function."""
        return self._num_edges

    @property
    def relative(self) -> np.ndarray:
        """Relative lengths (true lengths divided by ``exp(log_offset)``).

        This is the vector to hand to the spanning-tree oracle; relative
        and absolute lengths produce identical minimum spanning trees.
        """
        view = self._rel.view()
        view.flags.writeable = False
        return view

    @property
    def log_offset(self) -> float:
        """Natural log of the common scale factor."""
        return self._log_offset

    def log_value(self, relative_quantity: float) -> float:
        """Natural log of the absolute value of ``relative_quantity``.

        ``relative_quantity`` must be expressed in relative-length units
        (e.g. a tree length computed from :attr:`relative`).
        """
        if relative_quantity <= 0:
            return -math.inf
        return math.log(relative_quantity) + self._log_offset

    def at_least_one(self, relative_quantity: float) -> bool:
        """Whether the absolute value of ``relative_quantity`` is ``>= 1``."""
        return self.log_value(relative_quantity) >= 0.0

    def weighted_sum_log(self, weights: Sequence[float]) -> float:
        """``ln(sum_e weights_e * d_e)`` — used for the D2 stop criterion."""
        total = float(np.dot(np.asarray(weights, dtype=float), self._rel))
        if total <= 0:
            return -math.inf
        return math.log(total) + self._log_offset

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def multiply(self, edge_ids: np.ndarray, factors: np.ndarray) -> None:
        """Multiply the lengths of ``edge_ids`` by ``factors`` (elementwise).

        ``edge_ids`` must not repeat an edge: fancy-indexed in-place
        multiplication applies one factor per position, and a repeated id
        would silently keep only its last factor.  The solver hot loops
        satisfy this by construction (a tree visits each physical edge
        once); callers holding an *accumulated batch* of updates — where
        several (edge, factor) pairs may hit the same edge — use
        :meth:`multiply_batch`.  Like it, this rejects mismatched shapes
        (one factor must not broadcast over many edges) and factors that
        are not positive and finite, so lengths stay positive and finite.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        factors = np.asarray(factors, dtype=float)
        if edge_ids.shape != factors.shape:
            raise ConfigurationError(
                f"edge_ids and factors must have matching shapes, got "
                f"{edge_ids.shape} and {factors.shape}"
            )
        # One pass: NaN fails both comparisons.
        if not ((factors > 0) & (factors < np.inf)).all():
            raise ConfigurationError(
                "length update factors must be positive and finite"
            )
        self._rel[edge_ids] *= factors
        self._renormalize()

    def multiply_batch(self, edge_ids: np.ndarray, factors: np.ndarray) -> None:
        """Apply a batch of (edge, factor) updates in one vectorised op.

        The batched form of :meth:`multiply`: ``edge_ids`` may repeat an
        edge (``np.multiply.at`` accumulates every factor instead of
        keeping the last), so a caller can concatenate the updates of
        many trees/steps and apply them in a single NumPy call instead
        of one ``multiply`` per step.  Equivalent to — and bit-compatible
        with, up to one shared renormalisation — the sequential loop, as
        multiplication is commutative.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        factors = np.asarray(factors, dtype=float)
        if edge_ids.shape != factors.shape:
            raise ConfigurationError(
                f"edge_ids and factors must have matching shapes, got "
                f"{edge_ids.shape} and {factors.shape}"
            )
        if np.any(factors <= 0) or not np.all(np.isfinite(factors)):
            raise ConfigurationError(
                "length update factors must be positive and finite"
            )
        self._multiply_batch_checked(edge_ids, factors)

    def _multiply_batch_checked(self, edge_ids: np.ndarray, factors: np.ndarray) -> None:
        """Accumulate a validated batch, splitting on double overflow.

        A batch coalescing thousands of factors onto one edge can
        overflow IEEE range before the single end-of-batch
        renormalisation that the sequential loop performs per call.  On
        overflow, roll back and apply the batch in halves (renormalising
        between), restoring the loop's robustness at ~log cost.
        """
        rel_before = self._rel.copy()
        with np.errstate(over="ignore"):
            np.multiply.at(self._rel, edge_ids, factors)
        if not np.all(np.isfinite(self._rel)):
            # Restore in place: callers may hold .relative views, which
            # every other mutator keeps live by never rebinding _rel.
            self._rel[:] = rel_before
            if edge_ids.size <= 1:
                raise ConfigurationError(
                    "length update factor overflows the double range"
                )
            half = edge_ids.size // 2
            self._multiply_batch_checked(edge_ids[:half], factors[:half])
            self._multiply_batch_checked(edge_ids[half:], factors[half:])
            return
        self._renormalize()

    def multiply_dense(self, factors: np.ndarray) -> None:
        """Multiply every edge length by the dense ``factors`` vector."""
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self._num_edges,):
            raise ConfigurationError(
                f"factors must have shape ({self._num_edges},), got {factors.shape}"
            )
        if np.any(factors <= 0):
            raise ConfigurationError("length update factors must be positive")
        self._rel *= factors
        self._renormalize()

    def _renormalize(self) -> None:
        peak = float(self._rel.max())
        if peak > _RENORM_THRESHOLD:
            self._log_offset += math.log(peak)
            self._rel /= peak

    def copy(self) -> "LengthFunction":
        """Deep copy (used when algorithms need to restart phases)."""
        return LengthFunction(self._num_edges, self._log_offset, self._rel.copy())
