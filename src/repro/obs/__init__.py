"""repro.obs — cross-subsystem observability: metrics and trace spans.

Two halves, both stdlib-only and import-safe from every layer:

* :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry`
  of counters/gauges/histograms that store, queue, engine, solve and
  serve instruments feed; rendered as Prometheus text on the serve
  layer's ``GET /metrics``.
* :mod:`repro.obs.tracing` — opt-in hierarchical wall-clock spans
  (``solve`` → ``build_instance`` → ``engine.step`` → ``oracle_round``)
  written as Chrome trace-event JSON for Perfetto; ``python -m
  repro.obs merge`` stitches multi-process traces, ``summary`` prints a
  top-spans table.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    reset_registry,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    current_tracer,
    load_trace,
    maybe_span,
    merge_traces,
    summarize_trace,
    trace_to,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "reset_registry",
    "Span",
    "Tracer",
    "current_tracer",
    "load_trace",
    "maybe_span",
    "merge_traces",
    "summarize_trace",
    "trace_to",
]
