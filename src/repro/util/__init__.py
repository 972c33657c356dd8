"""Shared utilities: RNG handling, validation, tabular output, result I/O.

These helpers are deliberately dependency-light so that every other
subpackage (topology, routing, overlay, core, experiments) can rely on
them without import cycles.
"""

from repro.util.errors import (
    ReproError,
    InvalidNetworkError,
    InvalidSessionError,
    InfeasibleProblemError,
    ConfigurationError,
)
from repro.util.backoff import ExponentialBackoff
from repro.util.rng import ensure_rng, spawn_rngs
from repro.util.tables import format_table, format_kv
from repro.util.cdf import cumulative_distribution, normalized_rank_cdf
from repro.util.serialization import to_jsonable, dump_json, load_json

__all__ = [
    "ReproError",
    "InvalidNetworkError",
    "InvalidSessionError",
    "InfeasibleProblemError",
    "ConfigurationError",
    "ExponentialBackoff",
    "ensure_rng",
    "spawn_rngs",
    "format_table",
    "format_kv",
    "cumulative_distribution",
    "normalized_rank_cdf",
    "to_jsonable",
    "dump_json",
    "load_json",
]
