"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications embedding the library can catch a single base class.
:func:`check_seconds` is the one check of a duration argument.
"""

from __future__ import annotations

import math
from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidNetworkError(ReproError):
    """A physical network failed validation.

    Raised for non-positive capacities, self-loops, disconnected graphs
    where connectivity is required, or inconsistent edge indexing.
    """


class InvalidSessionError(ReproError):
    """An overlay session definition is invalid.

    Raised for sessions with fewer than two members, members that are not
    vertices of the physical network, duplicate members, or non-positive
    demands.
    """


class InfeasibleProblemError(ReproError):
    """A flow problem instance admits no feasible solution.

    For example a maximum concurrent flow instance in which some session's
    members are disconnected in the physical network.
    """


class ConfigurationError(ReproError):
    """An algorithm or experiment was configured with invalid parameters.

    Raised for approximation parameters outside ``(0, 1)``, non-positive
    tree limits, unknown routing model names, and similar user errors.
    """


class ConvergenceError(ReproError):
    """An iterative algorithm exceeded its iteration budget.

    The FPTAS solvers have provable iteration bounds; exceeding the
    configured safety factor over that bound indicates a bug or a
    pathological instance and is reported explicitly rather than looping
    forever.
    """


def check_seconds(name: str, value: Any, zero_ok: bool = False) -> float:
    """``value`` as a float of seconds, if finite and positive.

    ``zero_ok`` also accepts zero.  Anything else raises
    :class:`ConfigurationError`: a NaN lease expires at once and a NaN
    deadline never does (``monotonic() > nan`` is false), and an
    infinite lease never expires.
    """
    above_floor = 0 <= value if zero_ok else 0 < value
    if not (above_floor and value < math.inf):
        bound = "non-negative" if zero_ok else "positive"
        raise ConfigurationError(f"{name} must be finite and {bound}, got {value}")
    return float(value)
