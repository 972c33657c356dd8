"""repro.store — persistent, content-addressed result storage.

The store is the report cache of :mod:`repro.api.service`: reports are
kept on disk keyed on :attr:`repro.api.specs.ScenarioSpec.canonical_key`,
behind a small in-memory front, so repeated CLI invocations, experiment
re-runs and independent worker processes (:mod:`repro.cluster`) all
share one solved-spec universe.  ``solve`` and ``solve_many`` look a key
up in the store's memory front, then on disk, and solve it only on a
miss.

Opt in per call (``solve_many(specs, store="runs/store")``; a path
resolves to one store per directory in a process) or process-wide
(``REPRO_STORE=runs/store``); inspect and trim from the CLI
(``python -m repro.api cache stats|prune --store runs/store``).
"""

from repro.store.report_store import (
    ENTRY_SCHEMA,
    STORE_ENV_VAR,
    ReportStore,
    resolve_store,
)

__all__ = [
    "ReportStore",
    "resolve_store",
    "STORE_ENV_VAR",
    "ENTRY_SCHEMA",
]
