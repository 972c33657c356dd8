#!/usr/bin/env python
"""Persistent store + sharded work-queue execution in one file.

The scale-out story on top of the Scenario API: a *batch* of scenario
specs — here, a MaxFlow approximation-ratio sweep over two topologies —
is executed three ways, each building on the last:

1. **Serial** ``solve_many``: the baseline every other path must match
   bit-for-bit.
2. **Store-backed** ``solve_many``: the same batch with a persistent
   :class:`repro.store.ReportStore` attached.  The first pass solves and
   spills every report to disk; the second pass — caches cleared, as if
   in a fresh process — performs *zero* solver calls.
3. **Queue-based** drain: the batch is submitted to a file-backed
   :class:`repro.cluster.WorkQueue` sharded by canonical key, two
   independent worker subprocesses (the same ``python -m repro.cluster
   worker`` entry point you would run on other hosts) claim and solve
   cooperatively, and the asyncio front end streams reports back as
   they land in the shared store.

Run with:  python examples/store_and_cluster.py
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro.api import ScenarioSpec, TopologySpec, WorkloadSpec, clear_caches, solve_many
from repro.cluster import WorkQueue, shard_of, solve_many_async, spawn_local_workers
from repro.store import ReportStore
from repro.util.tables import format_kv


def build_batch() -> list[ScenarioSpec]:
    """A ratio sweep over two seeded topologies: 6 deterministic specs."""
    batch = []
    for seed in (7, 11):
        topology = TopologySpec(
            generator="paper_flat", params={"num_nodes": 30, "capacity": 100.0}, seed=seed
        )
        workload = WorkloadSpec(sizes=(4, 3), demand=100.0, seed=seed + 1)
        for ratio in (0.80, 0.85, 0.90):
            batch.append(
                ScenarioSpec(
                    topology=topology,
                    workload=workload,
                    solver="max_flow",
                    solver_params={"approximation_ratio": ratio},
                )
            )
    return batch


def main() -> None:
    specs = build_batch()
    fingerprint = lambda reports: [
        round(r.solution.overall_throughput, 6) for r in reports
    ]

    # 1. The serial baseline.
    serial = solve_many(specs, jobs=1)
    print("serial throughputs:   ", fingerprint(serial))

    with tempfile.TemporaryDirectory() as scratch:
        store_dir = Path(scratch) / "store"
        queue_dir = Path(scratch) / "queue"

        # 2. Store-backed: second run is served entirely from disk.
        store = ReportStore(store_dir)
        solve_many(specs, jobs=1, store=store)
        clear_caches()          # simulate a fresh process...
        store.clear_memory()    # ...with a cold in-memory front
        warm = solve_many(specs, jobs=1, store=store)
        print("warm-store throughputs:", fingerprint(warm))
        print(
            format_kv(
                {
                    "reports served from store": sum(r.cached for r in warm),
                    "store entries on disk": store.stats()["entries"],
                }
            )
        )
        assert fingerprint(warm) == fingerprint(serial)
        assert all(r.cached for r in warm)  # zero solver calls

        # 3. Queue-based: 2 subprocess workers drain a 2-shard batch
        #    cooperatively; reports stream back through the store.
        queue = WorkQueue(queue_dir)
        shards = [shard_of(s.canonical_key, 2) for s in specs]
        print(f"shard assignment: {shards}")
        cluster_store = ReportStore(Path(scratch) / "cluster-store")
        # Submit before spawning: batch-mode workers exit when they see
        # a drained queue, so an empty one must never be their first look.
        queue.submit(specs, num_shards=2)
        with spawn_local_workers(2, queue_dir, cluster_store.root, pin_shards=True):
            gathered = asyncio.run(
                solve_many_async(specs, queue, cluster_store, timeout=600, submit=False)
            )
        print("cluster throughputs:  ", fingerprint(gathered))
        assert fingerprint(gathered) == fingerprint(serial)
        print("queue state:", WorkQueue(queue_dir).counts())
        print("\nAll three execution paths produced identical results.")


if __name__ == "__main__":
    main()
