"""A store-failure circuit breaker for the serve front end.

When the report store's filesystem degrades (NFS outage, full disk,
injected faults), every request thread would otherwise pile into slow
failing I/O — latency explodes exactly when the system is least able to
afford it.  The breaker converts that into fast, honest 503s:

* **closed** — healthy; calls flow, consecutive failures are counted.
* **open** — ``failure_threshold`` consecutive failures tripped it;
  :meth:`allow` answers ``False`` (callers respond 503 + Retry-After
  without touching the store) until ``reset_seconds`` elapse.
* **half_open** — the cool-down expired; exactly one probe call is let
  through.  Success closes the breaker, failure re-opens it for another
  full cool-down.

The ``repro_serve_circuit_open`` gauge mirrors the state (1 = open) on
``/metrics``, so dashboards see the store outage the moment the serve
layer does.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.obs import metrics as obs_metrics
from repro.util.errors import ConfigurationError, check_seconds

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


def _open_gauge():
    return obs_metrics.registry().gauge(
        "repro_serve_circuit_open",
        "1 while the serve layer's store circuit breaker is open",
    )


class CircuitBreaker:
    """Consecutive-failure breaker with a one-probe half-open state.

    Thread-safe; serve request threads share one instance per resource.
    ``clock`` is injectable for tests.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = int(failure_threshold)
        # A NaN cool-down never ends while retry_after() reads 0.
        self.reset_seconds = check_seconds("reset_seconds", reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        # Register the gauge at construction so /metrics carries the
        # (closed = 0) sample even before any failure is recorded.
        _open_gauge().set(0)

    @property
    def state(self) -> str:
        with self._lock:
            return self._resolve_state()

    def _resolve_state(self) -> str:
        # Caller holds the lock.  Time alone moves open -> half_open.
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.reset_seconds
        ):
            self._state = HALF_OPEN
            self._probing = False
        return self._state

    def allow(self) -> bool:
        """Whether the caller may touch the protected resource now.

        In half-open state only the first caller gets ``True`` (the
        probe); the rest shed until the probe reports back.
        """
        with self._lock:
            state = self._resolve_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        """The protected call worked: close (and reset) the breaker."""
        with self._lock:
            self._state = CLOSED
            self._failures = 0
            self._opened_at = None
            self._probing = False
            _open_gauge().set(0)

    def record_failure(self) -> None:
        """The protected call failed; may trip the breaker open."""
        with self._lock:
            state = self._resolve_state()
            if state == HALF_OPEN:
                # The probe failed: a fresh full cool-down.
                self._trip()
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        # Caller holds the lock.
        self._state = OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._probing = False
        _open_gauge().set(1)

    def retry_after(self) -> float:
        """Seconds until the breaker would next admit a probe (>= 0)."""
        with self._lock:
            if self._resolve_state() != OPEN:
                return 0.0
            return max(
                0.0, self.reset_seconds - (self._clock() - self._opened_at)
            )

    def snapshot(self) -> Dict[str, object]:
        """State for ``/healthz`` / status payloads."""
        with self._lock:
            return {
                "state": self._resolve_state(),
                "consecutive_failures": self._failures,
                "retry_after_seconds": (
                    max(
                        0.0,
                        self.reset_seconds - (self._clock() - self._opened_at),
                    )
                    if self._state == OPEN
                    else 0.0
                ),
            }
