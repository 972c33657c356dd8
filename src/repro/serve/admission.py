"""Admission control: per-client submission queues with shed-on-depth.

The serving layer must stay responsive when submissions outpace solver
capacity, so admission is decided *before* a run is enqueued:

* Every admitted run waits in a priority queue (lower ``priority`` value
  runs sooner; FIFO within a priority level).  The queue is one shared
  heap with per-client accounting — conceptually a queue per client,
  multiplexed — so ``/v1/status`` can show each tenant's backlog.
* When total queued depth reaches the **high-water mark**, new
  submissions are *shed*: :meth:`AdmissionController.offer` raises
  :class:`AdmissionShed`, which the HTTP layer maps to ``429 Too Many
  Requests`` with a ``Retry-After`` hint.  Shedding at the door keeps
  the queue bounded and the latency of admitted work predictable.
* A ``per_client_limit`` additionally caps any single client's queued
  runs, so one noisy tenant cannot consume the whole admission window.

Executors consume via :meth:`take` (blocking with timeout) and report
:meth:`finish` when a run completes, which keeps the ``active`` gauge —
surfaced as backpressure in ``/v1/status`` — honest.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.util.errors import ConfigurationError, ReproError

DEFAULT_HIGH_WATER = 64
# Seconds a shed or draining client is told to wait before retrying.
RETRY_AFTER_SECONDS = 1.0


class AdmissionShed(ReproError):
    """A submission was refused because the queue crossed its high-water mark."""

    def __init__(
        self,
        message: str,
        depth: int,
        high_water: int,
        client: str,
    ) -> None:
        super().__init__(message)
        self.depth = depth
        self.high_water = high_water
        self.client = client
        self.retry_after = RETRY_AFTER_SECONDS


class AdmissionController:
    """Bounded, prioritised, per-client-accounted submission queue.

    Thread-safe: HTTP handler threads ``offer`` while executor threads
    ``take``.
    """

    def __init__(
        self,
        high_water: int = DEFAULT_HIGH_WATER,
        per_client_limit: Optional[int] = None,
    ) -> None:
        if high_water < 1:
            raise ConfigurationError(f"high_water must be >= 1, got {high_water}")
        if per_client_limit is not None and per_client_limit < 1:
            raise ConfigurationError(
                f"per_client_limit must be >= 1, got {per_client_limit}"
            )
        self.high_water = int(high_water)
        self.per_client_limit = per_client_limit
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, str, Any]] = []
        self._seq = itertools.count()
        self._queued_per_client: Dict[str, int] = {}
        self._active = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0

    # ------------------------------------------------------------------
    # producer side (HTTP handlers)
    # ------------------------------------------------------------------
    def offer(self, client: str, item: Any, priority: int = 0) -> int:
        """Admit ``item`` for ``client`` or raise :class:`AdmissionShed`.

        Returns the queue depth *after* admission (the caller's position
        bound, handy in the 202 response).
        """
        with self._ready:
            depth = len(self._heap)
            if depth >= self.high_water:
                self.shed += 1
                raise AdmissionShed(
                    f"admission queue is at its high-water mark "
                    f"({depth}/{self.high_water} queued); retry later",
                    depth=depth,
                    high_water=self.high_water,
                    client=client,
                )
            client_depth = self._queued_per_client.get(client, 0)
            if (
                self.per_client_limit is not None
                and client_depth >= self.per_client_limit
            ):
                self.shed += 1
                raise AdmissionShed(
                    f"client {client!r} has {client_depth} queued run(s), "
                    f"at its per-client limit ({self.per_client_limit})",
                    depth=depth,
                    high_water=self.high_water,
                    client=client,
                )
            heapq.heappush(self._heap, (int(priority), next(self._seq), client, item))
            self._queued_per_client[client] = client_depth + 1
            self.admitted += 1
            self._ready.notify()
            return len(self._heap)

    # ------------------------------------------------------------------
    # consumer side (executor threads)
    # ------------------------------------------------------------------
    def take(self, timeout: Optional[float] = None) -> Optional[Tuple[str, Any]]:
        """Pop the next ``(client, item)`` by priority, or ``None`` on timeout."""
        with self._ready:
            if not self._heap and not self._ready.wait_for(
                lambda: bool(self._heap), timeout=timeout
            ):
                return None
            _, _, client, item = heapq.heappop(self._heap)
            remaining = self._queued_per_client.get(client, 1) - 1
            if remaining > 0:
                self._queued_per_client[client] = remaining
            else:
                self._queued_per_client.pop(client, None)
            self._active += 1
            return client, item

    def finish(self, client: str) -> None:
        """A taken run finished (successfully or not)."""
        with self._lock:
            self._active = max(0, self._active - 1)
            self.completed += 1

    # ------------------------------------------------------------------
    # introspection (the /v1/status payload)
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON admission state for the status endpoint."""
        with self._lock:
            return {
                "depth": len(self._heap),
                "active": self._active,
                "high_water": self.high_water,
                "per_client_limit": self.per_client_limit,
                "queued_per_client": dict(sorted(self._queued_per_client.items())),
                "admitted": self.admitted,
                "shed": self.shed,
                "completed": self.completed,
            }
