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

import time
from typing import Optional

from repro.util.errors import check_seconds

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

    Both are finite positive seconds (:class:`ConfigurationError`
    otherwise): ``time.sleep(nan)`` raises.
    """

    def __init__(self, floor: float, cap: Optional[float] = None) -> None:
        self.floor = check_seconds("poll interval", floor)
        if cap is not None:
            cap = check_seconds("poll interval cap", cap)
        self.cap = max(self.floor, DEFAULT_CAP_SECONDS if cap is None else cap)
        self._delay = self.floor

    def next_delay(self) -> float:
        """The delay to sleep now; grows the next one (capped)."""
        delay = self._delay
        self._delay = min(self._delay * 2.0, self.cap)
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
