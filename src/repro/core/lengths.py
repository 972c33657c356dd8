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


def _positive_finite(values: np.ndarray) -> bool:
    """Whether every entry is positive and finite.

    Two reductions and no temporary arrays: ``min`` propagates NaN, which
    then fails ``> 0``.  An empty array passes.
    """
    return values.size == 0 or bool(values.min() > 0 and values.max() < np.inf)


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
        # A NaN offset would make every at_least_one test False, so a
        # MaxFlow run would only end at its step cap.
        if not math.isfinite(self._log_offset):
            raise ConfigurationError(f"log_offset must be finite, got {log_offset}")
        if relative is None:
            self._rel = np.ones(num_edges, dtype=float)
        else:
            rel = np.asarray(relative, dtype=float).copy()
            if rel.shape != (num_edges,):
                raise ConfigurationError(
                    f"relative lengths must have shape ({num_edges},), got {rel.shape}"
                )
            # An infinite entry would renormalise to NaN and the rest to 0.
            if not _positive_finite(rel):
                raise ConfigurationError(
                    "relative lengths must be positive and finite"
                )
            self._rel = rel
        self._renormalize()
        # ``_rel`` is only ever updated in place, so one read-only view
        # stays live for the object's lifetime.
        self._view = self._rel.view()
        self._view.flags.writeable = False

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
        The same read-only view is returned on every call; it reflects
        every later update.
        """
        return self._view

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
        (one factor must not broadcast over many edges), edge ids outside
        ``[0, num_edges)`` and factors that are not positive and finite,
        so lengths stay positive and finite.

        Per call this costs a range check of the ids and two reductions
        over the update, and nothing over all edges: the factors' minimum
        and the updated entries' maximum.  That maximum rejects an
        infinite factor, or a finite one whose product leaves the double
        range, before anything is written.  It also decides
        renormalisation: every mutator leaves all entries at or below the
        threshold, so only an updated entry can cross it, and
        :meth:`_renormalize` still takes the global maximum when it runs.
        """
        edge_ids, factors = self._as_update(edge_ids, factors)
        if not edge_ids.size:
            return
        updated = self._rel[edge_ids] * factors
        # The ufunc reductions themselves, without ``ndarray.max``'s
        # Python-level wrapper; NaN propagates through ``minimum`` and
        # fails ``> 0``.
        peak = np.maximum.reduce(updated, axis=None)
        if not (np.minimum.reduce(factors, axis=None) > 0 and peak < np.inf):
            raise ConfigurationError(
                "length update factors must be positive and finite"
            )
        self._rel[edge_ids] = updated
        if peak > _RENORM_THRESHOLD:
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

        No solver calls it.  It stays only because ``perfbench/layers.py``
        wraps it in every traced (``--trace 1``) benchmark run, as it
        does :class:`~repro.core.engine.ledger.TreeLedger`; it can go once
        the benchmark drops that wrapper.
        """
        edge_ids, factors = self._as_update(edge_ids, factors)
        if not _positive_finite(factors):
            raise ConfigurationError(
                "length update factors must be positive and finite"
            )
        self._multiply_batch_checked(edge_ids, factors)

    def _as_update(self, edge_ids, factors):
        """``(edge_ids, factors)`` as arrays of matching shape and valid ids.

        Raises :class:`ConfigurationError` on mismatched shapes or an
        edge id outside ``[0, num_edges)``; NumPy would wrap a negative
        id round to the end of the array.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        factors = np.asarray(factors, dtype=float)
        if edge_ids.shape != factors.shape:
            raise ConfigurationError(
                f"edge_ids and factors must have matching shapes, got "
                f"{edge_ids.shape} and {factors.shape}"
            )
        # ``ravel_multi_index`` range-checks every id in C, negative ones
        # included, in less time than one reduction.
        try:
            np.ravel_multi_index((edge_ids,), (self._num_edges,))
        except ValueError:
            raise ConfigurationError(
                f"edge ids must lie in [0, {self._num_edges})"
            ) from None
        return edge_ids, factors

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

    def _renormalize(self) -> None:
        peak = float(self._rel.max())
        if peak > _RENORM_THRESHOLD:
            self._log_offset += math.log(peak)
            self._rel /= peak
