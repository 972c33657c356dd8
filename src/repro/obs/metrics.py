"""A process-wide, thread-safe metrics registry (stdlib only).

Every subsystem answers its aggregate questions — "what is the store hit
rate?", "what is the p95 claim→complete latency?", "how many oracle
rounds ran batched?" — through one :class:`MetricsRegistry` of named
instruments:

* :class:`Counter` — monotonically increasing totals (hits, sheds, puts),
* :class:`Gauge` — last-write-wins values (queue depth, circuit state),
* :class:`Histogram` — fixed-bucket latency distributions (put seconds,
  claim→complete seconds), Prometheus-style cumulative buckets.

Instruments are resolved by ``(name, labels)`` — repeated lookups return
the same object — and every mutation is lock-protected, so serve worker
threads, HTTP handler threads and queue pollers share one registry
without torn counts.  Two read surfaces:

* :meth:`MetricsRegistry.render_prometheus` — the text exposition format
  (``GET /metrics`` on the serve layer),
* :meth:`MetricsRegistry.to_jsonable` — plain JSON
  (``python -m repro.obs dump``).

The process-wide registry is reached through :func:`registry`; tests
use :func:`reset_registry` for isolation.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

# Latency buckets (seconds): spans sub-millisecond store puts up to
# multi-minute solves, Prometheus-style cumulative with a +Inf tail.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    300.0,
)

LabelsLike = Optional[Mapping[str, str]]
_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: LabelsLike) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(key: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0; negative increments are ignored)."""
        if amount < 0:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins value that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket distribution with Prometheus cumulative semantics.

    ``observe(v)`` lands in every bucket whose upper bound is >= ``v``
    (rendered cumulatively at read time; stored per-bucket here), plus
    the running ``sum`` and ``count``.
    """

    __slots__ = ("_lock", "buckets", "_bucket_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative bucket counts keyed by upper bound, plus sum/count."""
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._count
            acc = self._sum
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            cumulative[repr(float(bound))] = running
        cumulative["+Inf"] = total
        return {"buckets": cumulative, "sum": acc, "count": total}

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket bounds (upper-bound estimate)."""
        with self._lock:
            counts = list(self._bucket_counts)
            total = self._count
        if total == 0:
            return 0.0
        target = q * total
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            if running >= target:
                return float(bound)
        return float(self.buckets[-1])


_TYPES = ("counter", "gauge", "histogram")


class _Family:
    """One named metric family: a type, help text, and per-label samples."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: Dict[_LabelKey, Any] = {}


class MetricsRegistry:
    """A name → instrument table shared by every subsystem in a process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    # ------------------------------------------------------------------
    # instrument resolution
    # ------------------------------------------------------------------
    def _instrument(
        self,
        kind: str,
        name: str,
        help_text: str,
        labels: LabelsLike,
        factory,
    ):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is registered as a {family.kind}, "
                    f"not a {kind}"
                )
            sample = family.samples.get(key)
            if sample is None:
                sample = factory()
                family.samples[key] = sample
            return sample

    def counter(self, name: str, help: str = "", labels: LabelsLike = None) -> Counter:
        """The counter registered under ``(name, labels)`` (created once)."""
        return self._instrument("counter", name, help, labels, Counter)

    def gauge(self, name: str, help: str = "", labels: LabelsLike = None) -> Gauge:
        """The gauge registered under ``(name, labels)`` (created once)."""
        return self._instrument("gauge", name, help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: LabelsLike = None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """The histogram registered under ``(name, labels)`` (created once)."""
        return self._instrument(
            "histogram", name, help, labels, lambda: Histogram(buckets)
        )

    # ------------------------------------------------------------------
    # read surfaces
    # ------------------------------------------------------------------
    def _snapshot_families(self) -> List[_Family]:
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self._snapshot_families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.samples):
                sample = family.samples[key]
                if family.kind == "histogram":
                    snap = sample.snapshot()
                    for bound, count in snap["buckets"].items():
                        label_str = _render_labels(key, [("le", bound)])
                        lines.append(f"{family.name}_bucket{label_str} {count}")
                    label_str = _render_labels(key)
                    lines.append(
                        f"{family.name}_sum{label_str} {_format_value(snap['sum'])}"
                    )
                    lines.append(f"{family.name}_count{label_str} {snap['count']}")
                else:
                    label_str = _render_labels(key)
                    lines.append(
                        f"{family.name}{label_str} {_format_value(sample.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-JSON registry dump (``python -m repro.obs dump``)."""
        out: Dict[str, Any] = {"metrics": {}}
        for family in self._snapshot_families():
            samples = []
            for key in sorted(family.samples):
                sample = family.samples[key]
                entry: Dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry.update(sample.snapshot())
                else:
                    entry["value"] = sample.value
                samples.append(entry)
            out["metrics"][family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def render_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_jsonable(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# the process-wide registry
# ----------------------------------------------------------------------
_GLOBAL_LOCK = threading.Lock()
_GLOBAL: Optional[MetricsRegistry] = None


def registry() -> MetricsRegistry:
    """The process-wide registry (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = MetricsRegistry()
    return _GLOBAL


def reset_registry() -> MetricsRegistry:
    """Drop all recorded samples: install and return a fresh registry."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = MetricsRegistry()
        return _GLOBAL
