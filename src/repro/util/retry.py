"""Retry policy for transient failures of one-shot reads.

A polling loop on the shared filesystem (the worker's claim loop, the
relay tailer, the serve collector) needs no retry of its own: it treats
a failed call as an empty poll, and its next poll is the retry.  A
one-shot read has no next poll — ``ReportStore.get`` would otherwise
report a miss on one I/O blip — so :class:`RetryPolicy` runs a callable
with bounded, backed-off retries and a single classification of what is
worth retrying.

Classification: an exception retries when it matches ``retryable``
*and not* ``non_retryable``.  The defaults treat I/O-flavoured errors
(``OSError``, ``ConnectionError``, ``TimeoutError``,
``InterruptedError``) as transient, but carve out the subclasses that
signal a *wrong world*, not a flaky one — a missing file will still be
missing on attempt three, and a permission error never self-heals.

Outcomes are counted in ``repro_retry_total{surface,outcome}``:
``retried`` per extra attempt scheduled, ``recovered`` when a retried
call eventually succeeds, ``exhausted`` when attempts run out (the final
error propagates), ``rejected`` when the error is classified
non-retryable (it propagates immediately).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

from repro.obs import metrics as obs_metrics
from repro.util.backoff import ExponentialBackoff
from repro.util.errors import ConfigurationError

DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    OSError,
    ConnectionError,
    TimeoutError,
    InterruptedError,
)

DEFAULT_NON_RETRYABLE: Tuple[Type[BaseException], ...] = (
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


def _retry_counter(surface: str, outcome: str):
    return obs_metrics.registry().counter(
        "repro_retry_total",
        "RetryPolicy attempt outcomes by surface",
        labels={"surface": surface, "outcome": outcome},
    )


@dataclass
class RetryPolicy:
    """Bounded retries with (optionally jittered) exponential backoff.

    ``max_attempts`` counts total tries, so ``1`` means no retry at all
    — handy for turning a policy off without unthreading it.  ``sleep``
    is injectable for tests (count delays instead of waiting them out).
    """

    max_attempts: int = 3
    floor: float = 0.05
    cap: float = 1.0
    factor: float = 2.0
    jitter: bool = True
    rng: Optional[random.Random] = None
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE
    non_retryable: Tuple[Type[BaseException], ...] = DEFAULT_NON_RETRYABLE
    sleep: Callable[[float], None] = time.sleep
    surface: str = "default"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"retry max_attempts must be >= 1, got {self.max_attempts}"
            )

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is transient under this policy's classification."""
        return isinstance(exc, self.retryable) and not isinstance(
            exc, self.non_retryable
        )

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)``, retrying transient failures.

        Returns the first successful result; re-raises the last error
        when attempts are exhausted or the error is non-retryable.
        """
        backoff = ExponentialBackoff(
            self.floor, self.cap, self.factor, jitter=self.jitter, rng=self.rng
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not self.is_retryable(exc):
                    _retry_counter(self.surface, "rejected").inc()
                    raise
                if attempt >= self.max_attempts:
                    _retry_counter(self.surface, "exhausted").inc()
                    raise
                _retry_counter(self.surface, "retried").inc()
                self.sleep(backoff.next_delay())
                continue
            if attempt > 1:
                _retry_counter(self.surface, "recovered").inc()
            return result
