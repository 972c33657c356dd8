"""A persistent, content-addressed store for solved reports.

:class:`ReportStore` spills :class:`repro.api.service.SolveReport`s to
disk keyed on :attr:`repro.api.specs.ScenarioSpec.canonical_key`, so
repeated CLI runs, batch sweeps and cooperating worker processes skip
every spec that has already been solved — anywhere, ever — instead of
only within one process's report cache.

Design
------
* **Content addressing.**  An entry's path is derived from its canonical
  key alone (``objects/<key[:2]>/<key>.json[.gz]``), so ``get``,
  ``contains``, ``stats`` and ``prune`` read the object files alone and
  multiple processes share one store with no coordination.
* **Atomic writes.**  Payloads are written tmp-file-then-rename
  (:func:`repro.util.serialization.atomic_write_bytes`), so a reader
  never sees a torn entry and two concurrent writers of the same key
  each land a complete file (last writer wins; both wrote the same
  deterministic report).
* **Corruption detection.**  Each payload is an envelope carrying a
  SHA-256 of its canonical report JSON.  ``get`` verifies the digest and
  the schema; a corrupt entry is quarantined (deleted) and reported as a
  miss, so the caller falls back to re-solving and the next ``put``
  heals the store.  A report whose engine instrumentation comes from
  another engine version (``instrumentation.engine`` other than
  :data:`~repro.core.engine.instrumentation.ENGINE_SCHEMA`) is removed
  and re-solved the same way, so warm and cold reports of one spec
  always agree, but it counts as ``stale``, not ``corrupt``.
* **LRU front.**  A small in-memory map of live reports serves repeated
  gets in one process without re-reading and re-building solutions.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import math
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.util.errors import ConfigurationError, ReproError
from repro.util.retry import DEFAULT_NON_RETRYABLE, RetryPolicy
from repro.util.serialization import atomic_write_bytes, canonical_json, read_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from repro.api.service import SolveReport

STORE_ENV_VAR = "REPRO_STORE"
ENTRY_SCHEMA = "ReportStoreEntry/v1"
# Capacity of each store's in-memory LRU front of live reports.
MEMORY_ENTRIES = 128

StoreLike = Union[None, str, Path, "ReportStore"]

# Crash seams the fault-injection sweep enumerates (see repro.faults).
# store.put.{write,rename,publish} are derived inside atomic_write_bytes
# from the fault_point passed by put().
faults.declare_point("store.put.write", "payload bytes of a report put")
faults.declare_point("store.put.rename", "before the put's atomic rename")
faults.declare_point("store.put.publish", "after the put's atomic rename")
faults.declare_point("store.get.read", "reading an entry's bytes")


def _canonical_bytes(data: Any) -> bytes:
    """Deterministic JSON bytes (the repo-wide canonical encoding)."""
    return canonical_json(data).encode("utf-8")


def _lookup_counter(outcome: str):
    return obs_metrics.registry().counter(
        "repro_store_lookups_total",
        "Report-store lookups by outcome",
        labels={"outcome": outcome},
    )


class ReportStore:
    """Content-addressed on-disk cache of solved reports.

    Parameters
    ----------
    root:
        Store directory (created on first use).
    compress:
        Gzip new payloads.  Reading is always format-agnostic — a store
        may hold a mix of plain and gzipped entries.
    durable:
        fsync puts (temp file + parent directory around the rename) so a
        published entry survives power loss, not just process death.
        Default on; turn off for throwaway stores in tight loops.
    """

    def __init__(
        self,
        root: Union[str, Path],
        compress: bool = False,
        durable: bool = True,
    ) -> None:
        self.root = Path(root)
        self.compress = bool(compress)
        self.durable = bool(durable)
        self._memory: "OrderedDict[str, SolveReport]" = OrderedDict()
        # One lock guards the LRU front and the hit/miss/corrupt/stale
        # counters: gets run concurrently on serve worker threads, and
        # unguarded `+= 1` / OrderedDict mutation would tear.  Disk I/O
        # happens outside the lock (atomic writes make that safe).
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stale = 0
        # Transient read blips (NFS hiccups, injected OSErrors) are
        # retried before an entry is declared missing; corruption is a
        # *verification* verdict, never an I/O one, so a flaky read can
        # no longer delete good data (see _load_entry).
        self._read_retry = RetryPolicy(
            max_attempts=3,
            floor=0.02,
            cap=0.25,
            surface="store.get",
            non_retryable=DEFAULT_NON_RETRYABLE + (gzip.BadGzipFile,),
        )

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    @property
    def _objects_dir(self) -> Path:
        return self.root / "objects"

    def _object_path(self, key: str, gz: bool) -> Path:
        suffix = ".json.gz" if gz else ".json"
        return self._objects_dir / key[:2] / f"{key}{suffix}"

    def _find_object(self, key: str) -> Optional[Path]:
        for gz in (self.compress, not self.compress):  # likely format first
            path = self._object_path(key, gz)
            if path.exists():
                return path
        return None

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether a (possibly unverified) entry for ``key`` is on disk."""
        return key in self._memory or self._find_object(key) is not None

    def put(self, report: "SolveReport") -> Path:
        """Persist ``report`` under its canonical key; returns the entry path.

        The stored report is normalised to ``cached=False`` so that a
        report's bytes depend only on the solved spec, not on which cache
        layer happened to serve it to the writer.
        """
        started = time.perf_counter()
        key = report.canonical_key
        if report.cached:
            # Normalise the object itself, not just the payload, so the
            # memory front and the disk entry agree on what they serve.
            report = dataclasses.replace(report, cached=False)
        payload = report.to_jsonable()
        report_bytes = _canonical_bytes(payload)
        envelope = _canonical_bytes(
            {
                "schema": ENTRY_SCHEMA,
                "key": key,
                "sha256": hashlib.sha256(report_bytes).hexdigest(),
                "report": payload,
            }
        )
        data = gzip.compress(envelope) if self.compress else envelope
        path = atomic_write_bytes(
            self._object_path(key, self.compress),
            data,
            durable=self.durable,
            fault_point="store.put",
        )
        self._remember(key, report)
        reg = obs_metrics.registry()
        reg.counter("repro_store_puts_total", "Reports persisted").inc()
        reg.histogram(
            "repro_store_put_seconds", "Report persist latency (seconds)"
        ).observe(time.perf_counter() - started)
        return path

    def get(self, key: str) -> Optional["SolveReport"]:
        """Fetch and verify the report stored under ``key``.

        Returns ``None`` — and removes the entry — when the entry is
        missing, unreadable, schema-mismatched, fails its digest check or
        comes from another engine version, so callers always fall back to
        a fresh solve.
        """
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.hits += 1
                report = self._memory[key]
                _lookup_counter("hit").inc()
                return report
        path = self._find_object(key)
        if path is None:
            with self._lock:
                self.misses += 1
            _lookup_counter("miss").inc()
            return None
        report = self._load_entry(key, path)
        if report is None:
            with self._lock:
                self.misses += 1
            _lookup_counter("miss").inc()
            return None
        with self._lock:
            self.hits += 1
        _lookup_counter("hit").inc()
        self._remember(key, report)
        return report

    def _read_entry(self, path: Path) -> bytes:
        faults.point("store.get.read")
        return read_bytes(path)

    def _load_entry(self, key: str, path: Path) -> Optional["SolveReport"]:
        from repro.api.service import SolveReport
        from repro.core.engine.instrumentation import ENGINE_SCHEMA

        try:
            raw = self._read_retry.call(self._read_entry, path)
        except FileNotFoundError:
            # Raced with prune/quarantine in another process: plain miss.
            return None
        except (gzip.BadGzipFile, EOFError):
            # Truncated or garbled gzip stream — the bytes themselves are
            # bad, so this is corruption, not a flaky read.
            return self._condemn(path)
        except OSError:
            # A transient read failure that outlived its retries.  The
            # entry may be perfectly fine — deleting it would turn an
            # I/O blip into data loss — so degrade to a miss and leave
            # the file for the next reader.
            return None
        try:
            envelope = json.loads(raw.decode("utf-8"))
            if (
                envelope.get("schema") != ENTRY_SCHEMA
                or envelope.get("key") != key
            ):
                raise ValueError("entry schema/key mismatch")
            report_payload = envelope["report"]
            digest = hashlib.sha256(_canonical_bytes(report_payload)).hexdigest()
            if digest != envelope.get("sha256"):
                raise ValueError("entry digest mismatch")
            # A report from another engine version would differ from a
            # cold solve of the same spec in its instrumentation.  Its
            # bytes are sound, so it is stale, not corrupt.
            engine = (report_payload.get("instrumentation") or {}).get("engine")
            if engine not in (None, ENGINE_SCHEMA):
                return self._retire_stale(path)
            return SolveReport.from_jsonable(report_payload)
        except (ValueError, KeyError, TypeError, ReproError):
            # ReproError covers reconstruction failures from the repo's
            # own layers (schema mismatch, invalid spec/session data) —
            # every flavour of bad entry must degrade to a miss, never
            # propagate to callers that promised to fall back to a solve.
            return self._condemn(path)

    def _condemn(self, path: Path) -> None:
        """Count and quarantine a verified-corrupt entry; returns None."""
        with self._lock:
            self.corrupt += 1
        obs_metrics.registry().counter(
            "repro_store_quarantines_total",
            "Corrupt entries quarantined on read",
        ).inc()
        self._quarantine(path)
        return None

    def _retire_stale(self, path: Path) -> None:
        """Count and remove a sound entry from another engine version."""
        with self._lock:
            self.stale += 1
        obs_metrics.registry().counter(
            "repro_store_stale_total",
            "Entries from another engine version removed on read",
        ).inc()
        self._quarantine(path)
        return None

    def _quarantine(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _remember(self, key: str, report: "SolveReport") -> None:
        with self._lock:
            self._memory[key] = report
            self._memory.move_to_end(key)
            while len(self._memory) > MEMORY_ENTRIES:
                self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    # stats and pruning
    # ------------------------------------------------------------------
    def _disk_entries(self) -> List[Path]:
        if not self._objects_dir.exists():
            return []
        return sorted(
            p
            for p in self._objects_dir.glob("*/*")
            if p.suffix == ".json" or p.name.endswith(".json.gz")
        )

    def stats(self) -> Dict[str, int]:
        """Store counters: disk entries/bytes, memory front, hit/miss/corrupt/stale."""
        paths = self._disk_entries()
        total = 0
        for p in paths:
            try:
                total += p.stat().st_size
            except OSError:
                pass
        with self._lock:
            memory_entries = len(self._memory)
            hits, misses, corrupt = self.hits, self.misses, self.corrupt
            stale = self.stale
        return {
            "entries": len(paths),
            "bytes": total,
            "memory_entries": memory_entries,
            "hits": hits,
            "misses": misses,
            "corrupt": corrupt,
            "stale": stale,
        }

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
    ) -> int:
        """Delete entries beyond ``max_entries`` (oldest-first) or older
        than ``max_age_seconds``; returns the number removed."""
        if max_entries is not None and max_entries < 0:
            raise ConfigurationError(f"max_entries must be >= 0, got {max_entries}")
        if max_age_seconds is not None and not 0 <= max_age_seconds < math.inf:
            raise ConfigurationError(
                f"max_age_seconds must be finite and >= 0, got {max_age_seconds}"
            )
        paths = self._disk_entries()
        stamped = []
        for p in paths:
            try:
                stamped.append((p.stat().st_mtime, p))
            except OSError:
                continue
        stamped.sort()  # oldest first
        doomed: set = set()
        if max_age_seconds is not None:
            cutoff = time.time() - max_age_seconds
            doomed.update(p for mtime, p in stamped if mtime < cutoff)
        if max_entries is not None and len(stamped) - len(doomed) > max_entries:
            survivors = [(m, p) for m, p in stamped if p not in doomed]
            excess = len(survivors) - max_entries
            doomed.update(p for _, p in survivors[:excess])
        removed_keys = set()
        for path in doomed:
            removed_keys.add(path.name.split(".")[0])
            try:
                path.unlink()
            except OSError:
                pass
        with self._lock:
            for key in removed_keys:
                self._memory.pop(key, None)
        return len(doomed)

    def clear_memory(self) -> None:
        """Drop the in-memory LRU front (disk entries are untouched)."""
        with self._lock:
            self._memory.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReportStore({str(self.root)!r}, compress={self.compress})"


_env_stores: Dict[str, ReportStore] = {}


def resolve_store(store: StoreLike) -> Optional[ReportStore]:
    """Coerce a ``store=`` argument into a :class:`ReportStore` (or None).

    ``None`` consults the ``REPRO_STORE`` environment variable — set it
    to a directory path to make every ``solve``/``solve_many`` in the
    process persistent without touching call sites.  The env-resolved
    store is memoized per path, so its in-memory LRU front and counters
    accumulate across calls instead of resetting on every resolve.
    Strings and paths open a store at that location; an existing store
    passes through.
    """
    if isinstance(store, ReportStore):
        return store
    if store is None:
        env = os.environ.get(STORE_ENV_VAR)
        if not env:
            return None
        if env not in _env_stores:
            _env_stores[env] = ReportStore(env)
        return _env_stores[env]
    return ReportStore(store)
