"""Worker-count plumbing for the batch solve service's process pool.

``repro.api.solve_many`` owns the library's only process pool, and every
experiment sweep solves through it; this module resolves that pool's
size, so one ``--jobs`` flag / ``REPRO_JOBS`` environment variable
governs every parallel run.  Precedence: an explicitly passed ``jobs``
value, then the value installed by :func:`configure_jobs` (the section
CLIs' flag), then ``REPRO_JOBS``, then 1 (serial).  ``0`` always means
"all CPU cores".
"""

from __future__ import annotations

import os
from typing import Optional

from repro.util.errors import ConfigurationError

JOBS_ENV_VAR = "REPRO_JOBS"

_configured_jobs: Optional[int] = None


def configure_jobs(jobs: Optional[int]) -> Optional[int]:
    """Set the process-wide default worker count for parallel runs.

    This is the programmatic face of the section CLIs' ``--jobs`` knob:
    they call it once at startup and every sweep in the process picks
    it up.  A configured value takes precedence over the ``REPRO_JOBS``
    environment variable — an explicit flag must win over ambient
    environment.  ``0`` means "all CPU cores"; ``None`` clears the
    configured value.  Returns the previous configured value (``None``
    if unset), suitable for restoring.
    """
    global _configured_jobs
    previous = _configured_jobs
    _configured_jobs = None if jobs is None else _validate_jobs(jobs)
    return previous


def default_jobs() -> int:
    """Default parallelism.

    Precedence: :func:`configure_jobs` value (the CLI flag), then the
    ``REPRO_JOBS`` env var, then 1 (serial).
    """
    if _configured_jobs is not None:
        return _configured_jobs
    env = os.environ.get(JOBS_ENV_VAR)
    if env is not None:
        try:
            return _validate_jobs(int(env))
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``--jobs`` value to a concrete worker count (``>= 1``).

    ``None`` falls back to :func:`default_jobs`; ``0`` means "all CPU
    cores"; negative values are rejected.
    """
    jobs = default_jobs() if jobs is None else _validate_jobs(jobs)
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _validate_jobs(jobs: int) -> int:
    jobs = int(jobs)
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs
