"""Capped exponential backoff for idle polling loops.

The cluster worker, the asyncio report gatherer and the serve layer's
SSE tailer all poll a shared filesystem for new work.  Fixed-interval
polling burns CPU (and filesystem metadata traffic) on idle queues;
:class:`ExponentialBackoff` keeps the configured interval as the *floor*
— the first delay after any hit is exactly ``poll_seconds``, preserving
existing latency on busy queues — and doubles it on every consecutive
empty poll up to a cap, so an idle loop settles into long sleeps.

Callers ``reset()`` on any productive poll (a claimed task, a landed
report, a new event line), restoring the floor for the next idle
stretch.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from repro.util.errors import ConfigurationError

DEFAULT_CAP_SECONDS = 2.0


class ExponentialBackoff:
    """Delays ``floor, 2*floor, 4*floor, ... , cap`` between empty polls.

    Parameters
    ----------
    floor:
        The busy-loop poll interval (the existing ``poll_seconds``
        semantics): the first delay after a reset is exactly this.
    cap:
        Upper bound on the delay.  Defaults to
        ``max(floor, DEFAULT_CAP_SECONDS)`` so a floor above the default
        cap degrades to fixed-interval polling rather than shrinking.
    factor:
        Growth multiplier per consecutive empty poll.
    jitter:
        Off by default (the historical deterministic ladder).  When on,
        each delay is *decorrelated jitter* — drawn uniformly from
        ``[floor, previous * factor]`` and capped — which de-synchronises
        fleets of retrying workers that would otherwise hammer a
        recovering store in lockstep.  Every delay still lies in
        ``[floor, cap]``, and :meth:`reset` restores the floor as the
        correlation state exactly as in the deterministic mode.
    rng:
        RNG for the jitter draws (a ``random.Random``); seed one for
        reproducible schedules.  A private instance is created when
        omitted.
    """

    def __init__(
        self,
        floor: float,
        cap: Optional[float] = None,
        factor: float = 2.0,
        jitter: bool = False,
        rng: Optional[random.Random] = None,
    ) -> None:
        if floor <= 0:
            raise ConfigurationError(f"backoff floor must be positive, got {floor}")
        if factor < 1.0:
            raise ConfigurationError(f"backoff factor must be >= 1, got {factor}")
        self.floor = float(floor)
        self.cap = max(float(cap), self.floor) if cap is not None else max(
            self.floor, DEFAULT_CAP_SECONDS
        )
        self.factor = float(factor)
        self.jitter = bool(jitter)
        self._rng = rng if rng is not None else random.Random()
        self._delay = self.floor

    def next_delay(self) -> float:
        """The delay to sleep now; grows the next one (capped)."""
        if self.jitter:
            delay = min(
                self.cap,
                self._rng.uniform(self.floor, max(self.floor, self._delay * self.factor)),
            )
            self._delay = delay
            return delay
        delay = self._delay
        self._delay = min(self._delay * self.factor, self.cap)
        return delay

    def reset(self) -> None:
        """A productive poll happened: restore the floor."""
        self._delay = self.floor

    def sleep(self) -> float:
        """Sleep for :meth:`next_delay`; returns the slept delay.

        Synchronous callers only — asyncio loops award the delay to
        ``asyncio.sleep`` themselves.
        """
        delay = self.next_delay()
        time.sleep(delay)
        return delay
