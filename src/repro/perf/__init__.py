"""Performance measurement and trajectory records.

The repo's perf trajectory is tracked through ``BENCH_core.json``, a
small machine-readable record of the oracle hot path's throughput
(oracle calls/sec and wall time under fixed versus dynamic routing, the
sparse tree-length / length-multiply / oracle-batch ablations, the
dynamic union-Dijkstra front, the measured Prim crossover, and the
observability and durability costs).  Every
write *appends* a compact entry to the record's ``history`` list, so the
file is a run-over-run trajectory rather than a snapshot.
``benchmarks/bench_core_ops.py`` emits it at quick scale; a
``bench_smoke``-marked test exercises the writer at tiny scale inside
the tier-1 suite.
"""

from repro.perf.record import (
    BENCH_SCHEMA,
    QUICK_PROFILE,
    TINY_PROFILE,
    PerfProfile,
    build_perf_instance,
    measure_core_perf,
    profile_for_scale,
    write_core_perf_record,
)

__all__ = [
    "BENCH_SCHEMA",
    "PerfProfile",
    "QUICK_PROFILE",
    "TINY_PROFILE",
    "build_perf_instance",
    "measure_core_perf",
    "profile_for_scale",
    "write_core_perf_record",
]
