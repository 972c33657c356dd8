"""Smoke tests for the BENCH_core.json perf-record writer.

Marked ``bench_smoke`` so the benchmark-record machinery is exercised in
the tier-1 run (at tiny scale, sub-seconds) and can also be selected
alone with ``pytest -m bench_smoke``.
"""

import json

import pytest

from repro.perf import BENCH_SCHEMA, measure_core_perf, write_core_perf_record
from repro.perf.record import profile_for_scale
from repro.util.errors import ConfigurationError

pytestmark = pytest.mark.bench_smoke


def test_write_core_perf_record_tiny(tmp_path):
    path = write_core_perf_record(tmp_path / "BENCH_core.json", scale="tiny")
    record = json.loads(path.read_text())
    assert record["schema"] == BENCH_SCHEMA
    assert record["scale"] == "tiny"

    fixed = record["maxflow_fixed"]
    assert fixed["memoized"]["oracle_calls"] > 0
    assert fixed["memoized"]["cache_hits"] > 0
    # The arms whose code paths are gone are gone from the record.
    assert set(fixed) == {"memoized"}
    assert "ledger_kernel" not in record
    assert "engine_step" not in record

    dynamic = record["maxflow_dynamic"]["memoized"]
    assert dynamic["oracle_calls"] > 0
    assert dynamic["seconds"] > 0
    # Fixed routing must be much cheaper per oracle call than dynamic
    # (incidence mat-vec versus per-call Dijkstra).
    assert fixed["memoized"]["calls_per_sec"] > dynamic["calls_per_sec"]

    # Sparse tree-length ablation: both arms measured on the same tree,
    # on a dedicated topology large enough for the sparse path to engage.
    from repro.overlay.tree import SPARSE_LENGTH_MIN_EDGES

    tree_length = record["tree_length"]
    assert tree_length["iterations"] > 0
    assert tree_length["num_edges"] >= SPARSE_LENGTH_MIN_EDGES
    assert 0 < tree_length["physical_edges"] < tree_length["num_edges"]
    assert tree_length["sparse_evals_per_sec"] > 0
    assert tree_length["dense_evals_per_sec"] > 0
    assert tree_length["sparse_speedup"] > 0

    # Dense/sparse crossover sweep backing SPARSE_LENGTH_MIN_EDGES.
    assert "ledger" not in tree_length
    crossover = tree_length["crossover"]
    assert len(crossover["num_edges"]) == len(crossover["dense_us_per_eval"])
    assert len(crossover["num_edges"]) == len(crossover["sparse_us_per_eval"])
    assert crossover["configured_min_edges"] == float(SPARSE_LENGTH_MIN_EDGES)
    # Length-update batching ablation: one multiply_batch call versus a
    # loop of multiply calls over the same accumulated updates.
    length_multiply = record["length_multiply"]
    assert length_multiply["updates"] > 0
    assert length_multiply["loop_seconds"] > 0
    assert length_multiply["batched_seconds"] > 0
    assert length_multiply["batched_updates_per_sec"] > 0
    assert length_multiply["batched_speedup"] > 0
    assert not any(key.startswith("unique") for key in length_multiply)

    # Oracle-batching ablation: one BatchedOracleFront round (stacked
    # incidence mat-vec, all sessions) versus the per-oracle query loop.
    oracle_batch = record["oracle_batch"]
    assert oracle_batch["rounds"] > 0
    assert oracle_batch["sessions"] > 1
    assert oracle_batch["batched_seconds"] > 0
    assert oracle_batch["loop_seconds"] > 0
    assert oracle_batch["batched_rounds_per_sec"] > 0
    assert oracle_batch["batched_speedup"] > 0

    # Dynamic-routing oracle throughput plus the union-front ablation.
    dynamic_oracle = record["dynamic_oracle"]
    assert dynamic_oracle["calls_per_sec"] > 0
    assert not any(key.startswith("legacy") for key in dynamic_oracle)
    front = dynamic_oracle["front"]
    assert front["rounds"] > 0
    assert front["sessions"] > 1
    assert front["batched_rounds_per_sec"] > 0
    assert front["batched_speedup"] > 0

    # Prim crossover sweep behind overlay.mst._PYTHON_PRIM_LIMIT.
    prim = record["prim_crossover"]
    assert len(prim["sizes"]) == len(prim["python_us_per_call"])
    assert len(prim["sizes"]) == len(prim["numpy_us_per_call"])
    assert prim["configured_limit"] > 0

    # Observability overhead: three interleaved arms over identical step
    # sequences, plus the traced-solve bit-identity check.
    obs = record["obs_overhead"]
    assert obs["steps"] > 0
    assert obs["disabled_seconds"] > 0
    assert obs["metrics_seconds"] > 0
    assert obs["traced_seconds"] > 0
    # The traced arm records exactly one engine.step span per step.
    assert obs["traced_step_spans"] > 0
    assert obs["traced_span_events"] >= obs["traced_step_spans"]
    assert obs["outputs_identical_with_trace"]

    # Durability cost: the bare-put arm records the raw fsync price, the
    # solve-and-persist cycle carries the <10% design guard (solving
    # dominates the realistic path, as it does for cluster workers), and
    # the disabled fault-point arm pins the zero-overhead claim for the
    # injection seams left in hot I/O paths.
    durability = record["durability"]
    assert durability["puts"] > 0
    assert durability["durable_us_per_put"] > 0
    assert durability["volatile_us_per_put"] > 0
    cycle = durability["solve_persist"]
    assert cycle["durable_seconds"] > 0
    assert cycle["volatile_seconds"] > 0
    assert cycle["overhead_pct"] < 10.0, durability
    fault_point = durability["fault_point"]
    assert fault_point["calls"] > 0
    assert 0 < fault_point["disabled_ns_per_call"] < 1500.0, fault_point

    latest = record["history"][-1]
    assert latest["multiply_batched_speedup"] == length_multiply["batched_speedup"]
    assert latest["oracle_batch_speedup"] == oracle_batch["batched_speedup"]
    assert latest["dynamic_oracle_calls_per_sec"] == dynamic_oracle["calls_per_sec"]
    assert latest["prim_crossover"] == prim["measured_crossover"]
    assert latest["tree_length_measured_crossover"] == crossover["measured_crossover"]
    assert latest["obs_metrics_overhead_pct"] == obs["metrics_overhead_pct"]
    assert latest["obs_trace_overhead_pct"] == obs["trace_overhead_pct"]
    assert latest["durable_put_overhead_pct"] == durability["put_overhead_pct"]
    assert latest["durable_solve_persist_overhead_pct"] == cycle["overhead_pct"]
    assert latest["fault_point_disabled_ns"] == fault_point["disabled_ns_per_call"]


def test_record_appends_history(tmp_path):
    path = tmp_path / "BENCH_core.json"
    write_core_perf_record(path, scale="tiny")
    first = json.loads(path.read_text())
    assert len(first["history"]) == 1

    write_core_perf_record(path, scale="tiny")
    second = json.loads(path.read_text())
    # The trajectory accumulates: run 1's entry survives run 2's write.
    assert len(second["history"]) == 2
    assert second["history"][0] == first["history"][0]
    latest = second["history"][-1]
    assert latest["fixed_calls_per_sec"] == second["maxflow_fixed"]["memoized"]["calls_per_sec"]
    assert latest["scale"] == "tiny"


def test_record_migrates_v1_file(tmp_path):
    # A pre-history (v1) record contributes one synthesized entry.
    path = tmp_path / "BENCH_core.json"
    v1 = {
        "schema": "BENCH_core/v1",
        "scale": "quick",
        "maxflow_fixed": {
            "memoized": {"calls_per_sec": 123.0, "seconds": 1.0},
            "memoization_speedup": 2.0,
        },
        "maxflow_dynamic": {"memoized": {"calls_per_sec": 45.0}},
    }
    path.write_text(json.dumps(v1))
    write_core_perf_record(path, scale="tiny")
    record = json.loads(path.read_text())
    assert record["schema"] == BENCH_SCHEMA
    assert len(record["history"]) == 2
    assert record["history"][0]["fixed_calls_per_sec"] == 123.0
    assert record["history"][0]["schema"] == "BENCH_core/v1"


def test_record_migrates_v4_history(tmp_path):
    # A v4 record's accumulated trajectory survives later writes: the
    # prior history entries are carried over verbatim, with the new
    # entry appended last.
    path = tmp_path / "BENCH_core.json"
    v4_history = [
        {"schema": "BENCH_core/v3", "scale": "quick", "fixed_calls_per_sec": 9.0},
        {
            "schema": "BENCH_core/v4",
            "scale": "quick",
            "fixed_calls_per_sec": 10.0,
            "dynamic_calls_per_sec": 780.0,
            "oracle_batch_speedup": 1.5,
        },
    ]
    v4 = {
        "schema": "BENCH_core/v4",
        "scale": "quick",
        "maxflow_fixed": {"memoized": {"calls_per_sec": 10.0}},
        "maxflow_dynamic": {"memoized": {"calls_per_sec": 780.0}},
        "history": v4_history,
    }
    path.write_text(json.dumps(v4))
    write_core_perf_record(path, scale="tiny")
    record = json.loads(path.read_text())
    assert record["schema"] == BENCH_SCHEMA
    assert record["history"][:2] == v4_history
    assert len(record["history"]) == 3
    latest = record["history"][-1]
    assert latest["schema"] == BENCH_SCHEMA
    assert latest["dynamic_oracle_calls_per_sec"] == (
        record["dynamic_oracle"]["calls_per_sec"]
    )


def test_record_migrates_v5_history(tmp_path):
    # A v5 record's trajectory (pre-engine_step) survives the v6 write
    # verbatim, with the new (v6, engine_step-bearing) entry appended.
    path = tmp_path / "BENCH_core.json"
    v5_history = [
        {"schema": "BENCH_core/v4", "scale": "quick", "fixed_calls_per_sec": 10.0},
        {
            "schema": "BENCH_core/v5",
            "scale": "quick",
            "fixed_calls_per_sec": 11.0,
            "dynamic_oracle_calls_per_sec": 2800.0,
            "dynamic_oracle_speedup": 2.8,
            "prim_crossover": 128.0,
        },
    ]
    v5 = {
        "schema": "BENCH_core/v5",
        "scale": "quick",
        "maxflow_fixed": {"memoized": {"calls_per_sec": 11.0}},
        "maxflow_dynamic": {"memoized": {"calls_per_sec": 800.0}},
        "dynamic_oracle": {"calls_per_sec": 2800.0, "fastpath_speedup": 2.8},
        "history": v5_history,
    }
    path.write_text(json.dumps(v5))
    write_core_perf_record(path, scale="tiny")
    record = json.loads(path.read_text())
    assert record["schema"] == BENCH_SCHEMA
    assert record["history"][:2] == v5_history
    assert len(record["history"]) == 3
    latest = record["history"][-1]
    assert latest["schema"] == BENCH_SCHEMA
    assert latest["prim_crossover"] == record["prim_crossover"]["measured_crossover"]


def test_record_migrates_v6_history(tmp_path):
    # A v6 record's trajectory (pre-obs_overhead) survives the v7 write
    # verbatim, with the new (obs_overhead-bearing) entry appended.
    path = tmp_path / "BENCH_core.json"
    v6_history = [
        {"schema": "BENCH_core/v5", "scale": "quick", "fixed_calls_per_sec": 11.0},
        {
            "schema": "BENCH_core/v6",
            "scale": "quick",
            "fixed_calls_per_sec": 12.0,
            "engine_step_stacked_speedup": 1.9,
        },
    ]
    v6 = {
        "schema": "BENCH_core/v6",
        "scale": "quick",
        "maxflow_fixed": {"memoized": {"calls_per_sec": 12.0}},
        "maxflow_dynamic": {"memoized": {"calls_per_sec": 850.0}},
        "engine_step": {"stacked_speedup": 1.9},
        "history": v6_history,
    }
    path.write_text(json.dumps(v6))
    write_core_perf_record(path, scale="tiny")
    record = json.loads(path.read_text())
    assert record["schema"] == BENCH_SCHEMA
    assert record["history"][:2] == v6_history
    assert len(record["history"]) == 3
    latest = record["history"][-1]
    assert latest["schema"] == BENCH_SCHEMA
    assert latest["obs_metrics_overhead_pct"] == (
        record["obs_overhead"]["metrics_overhead_pct"]
    )


def test_record_migrates_v7_history(tmp_path):
    # A v7 record's trajectory (pre-ledger_kernel) survives the v8 write
    # verbatim, with the new (kernel-backend-bearing) entry appended.
    path = tmp_path / "BENCH_core.json"
    v7_history = [
        {"schema": "BENCH_core/v6", "scale": "quick", "fixed_calls_per_sec": 12.0},
        {
            "schema": "BENCH_core/v7",
            "scale": "quick",
            "fixed_calls_per_sec": 13.0,
            "ledger_round_speedup": 0.45,
            "obs_metrics_overhead_pct": 1.2,
        },
    ]
    v7 = {
        "schema": "BENCH_core/v7",
        "scale": "quick",
        "maxflow_fixed": {"memoized": {"calls_per_sec": 13.0}},
        "maxflow_dynamic": {"memoized": {"calls_per_sec": 900.0}},
        "obs_overhead": {"metrics_overhead_pct": 1.2},
        "history": v7_history,
    }
    path.write_text(json.dumps(v7))
    write_core_perf_record(path, scale="tiny")
    record = json.loads(path.read_text())
    assert record["schema"] == BENCH_SCHEMA
    assert record["history"][:2] == v7_history
    assert len(record["history"]) == 3
    latest = record["history"][-1]
    assert latest["schema"] == BENCH_SCHEMA
    assert latest["obs_trace_overhead_pct"] == (
        record["obs_overhead"]["trace_overhead_pct"]
    )


def test_record_migrates_v8_history(tmp_path):
    # A v8 record's trajectory (pre-durability) survives the v9 write
    # verbatim, with the new (durability-bearing) entry appended.
    path = tmp_path / "BENCH_core.json"
    v8_history = [
        {"schema": "BENCH_core/v7", "scale": "quick", "fixed_calls_per_sec": 13.0},
        {
            "schema": "BENCH_core/v8",
            "scale": "quick",
            "fixed_calls_per_sec": 14.0,
            "ledger_kernel_round_speedup": 1.4,
        },
    ]
    v8 = {
        "schema": "BENCH_core/v8",
        "scale": "quick",
        "maxflow_fixed": {"memoized": {"calls_per_sec": 14.0}},
        "maxflow_dynamic": {"memoized": {"calls_per_sec": 950.0}},
        "ledger_kernel": {"backend": "ordered"},
        "history": v8_history,
    }
    path.write_text(json.dumps(v8))
    write_core_perf_record(path, scale="tiny")
    record = json.loads(path.read_text())
    assert record["schema"] == BENCH_SCHEMA
    assert record["history"][:2] == v8_history
    assert len(record["history"]) == 3
    latest = record["history"][-1]
    assert latest["schema"] == BENCH_SCHEMA
    assert latest["durable_solve_persist_overhead_pct"] == (
        record["durability"]["solve_persist"]["overhead_pct"]
    )
    assert latest["fault_point_disabled_ns"] == (
        record["durability"]["fault_point"]["disabled_ns_per_call"]
    )


def test_record_migrates_v9_history(tmp_path):
    # A v9 record's trajectory keeps its ledger, kernel and engine-step
    # fields verbatim; the v10 entry appended after it has none of them.
    path = tmp_path / "BENCH_core.json"
    v9_history = [
        {"schema": "BENCH_core/v8", "scale": "quick", "fixed_calls_per_sec": 14.0},
        {
            "schema": "BENCH_core/v9",
            "scale": "quick",
            "fixed_calls_per_sec": 15.0,
            "memoization_speedup": 1.6,
            "ledger_round_speedup": 2.8,
            "multiply_unique_speedup": 1.4,
            "dynamic_oracle_speedup": 4.9,
            "engine_step_stacked_speedup": 1.2,
        },
    ]
    v9 = {
        "schema": "BENCH_core/v9",
        "scale": "quick",
        "maxflow_fixed": {"memoized": {"calls_per_sec": 15.0}},
        "maxflow_dynamic": {"memoized": {"calls_per_sec": 990.0}},
        "ledger_kernel": {"backend": "ordered"},
        "engine_step": {"stacked_speedup": 1.2},
        "history": v9_history,
    }
    path.write_text(json.dumps(v9))
    write_core_perf_record(path, scale="tiny")
    record = json.loads(path.read_text())
    assert record["schema"] == BENCH_SCHEMA == "BENCH_core/v10"
    assert record["history"][:2] == v9_history
    assert len(record["history"]) == 3
    latest = record["history"][-1]
    assert latest["schema"] == BENCH_SCHEMA
    for retired in v9_history[1]:
        if retired not in ("schema", "scale", "fixed_calls_per_sec"):
            assert retired not in latest
    assert latest["fixed_calls_per_sec"] == (
        record["maxflow_fixed"]["memoized"]["calls_per_sec"]
    )


def test_corrupt_prior_record_is_ignored(tmp_path):
    path = tmp_path / "BENCH_core.json"
    path.write_text("{not json")
    write_core_perf_record(path, scale="tiny")
    record = json.loads(path.read_text())
    assert len(record["history"]) == 1


def test_measure_core_perf_rejects_unknown_scale():
    with pytest.raises(ConfigurationError):
        measure_core_perf("paper")
    with pytest.raises(ConfigurationError):
        profile_for_scale("huge")
