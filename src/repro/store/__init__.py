"""repro.store — persistent, content-addressed result storage.

The store turns the in-process report cache of :mod:`repro.api.service`
into durable state: reports are spilled to disk keyed on
:attr:`repro.api.specs.ScenarioSpec.canonical_key`, so repeated CLI
invocations, experiment re-runs and independent worker processes
(:mod:`repro.cluster`) all share one solved-spec universe.

Opt in per call (``solve_many(specs, store="runs/store")``) or
process-wide (``REPRO_STORE=runs/store``); inspect and trim from the
CLI (``python -m repro.api cache stats|prune --store runs/store``).
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
