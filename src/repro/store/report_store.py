"""A persistent, content-addressed store for solved reports.

:class:`ReportStore` spills :class:`repro.api.service.SolveReport`s to
disk keyed on :attr:`repro.api.specs.ScenarioSpec.canonical_key`, so
repeated CLI runs, batch sweeps and cooperating worker processes skip
every spec that has already been solved — anywhere, ever.  It is the one
report cache of :func:`repro.api.solve` and :func:`repro.api.solve_many`:
a key's lookup chain is this store's memory front, then its disk entry,
then the solver.

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
* **Stored bytes.**  A report's canonical JSON bytes are what the store
  keeps: ``put`` encodes the report once and writes the entry envelope
  around those bytes, the memory front holds them, and ``get_bytes``
  hands them out verified but unparsed (the body serve sends).  ``get``
  rebuilds a live report from them for callers that want an object.
* **Corruption detection.**  Each payload is an envelope carrying a
  SHA-256 of its canonical report JSON.  Reads verify the digest and
  the schema; an entry whose bytes are not a verified report, whatever
  their shape, is quarantined (deleted) and reported as a miss, so the
  caller falls back to re-solving and the next ``put`` heals the store.
  A read that fails with a transient ``OSError`` is retried a bounded
  number of times first, and never deletes the entry.  A report whose
  engine instrumentation comes from another engine version
  (``instrumentation.engine`` other than
  :data:`~repro.core.engine.instrumentation.ENGINE_SCHEMA`) is removed
  and re-solved the same way, so warm and cold reports of one spec
  always agree, but it counts as ``stale``, not ``corrupt``.
* **LRU front.**  A small in-memory map of verified report bytes serves
  repeated reads in one process without re-reading or re-verifying them.
  The first ``get`` of a key keeps the report it rebuilt beside the
  bytes, so repeated gets do not rebuild it again.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import random
import threading
import time
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.util.errors import ConfigurationError, ReproError, check_seconds
from repro.util.serialization import atomic_write_bytes, canonical_json, read_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from repro.api.service import SolveReport

STORE_ENV_VAR = "REPRO_STORE"
ENTRY_SCHEMA = "ReportStoreEntry/v1"
# Capacity of each store's in-memory LRU front of report bytes.
MEMORY_ENTRIES = 128
# An entry read makes at most READ_ATTEMPTS calls; after a transient
# OSError it sleeps a decorrelated-jitter delay, the first drawn from
# [floor, 2 * floor] and each next from [floor, 2 * previous], capped.
READ_ATTEMPTS = 3
READ_RETRY_FLOOR = 0.02
READ_RETRY_CAP = 0.25

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


# The canonical envelope's keys sort as key, report, schema, sha256, so
# an entry is a head naming the key, the report's bytes and a tail
# naming the schema and the digest.
def _entry_head(key: str) -> bytes:
    return b'{"key":' + _canonical_bytes(key) + b',"report":'


def _entry_tail(digest: str) -> bytes:
    return (
        b',"schema":'
        + _canonical_bytes(ENTRY_SCHEMA)
        + b',"sha256":'
        + _canonical_bytes(digest)
        + b"}"
    )


def _retry_counter(outcome: str):
    return obs_metrics.registry().counter(
        "repro_retry_total",
        "Report-store read attempts by outcome",
        labels={"surface": "store.get", "outcome": outcome},
    )


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
        # key -> (report bytes, the report a get rebuilt from them or None)
        self._memory: "OrderedDict[str, Tuple[bytes, Optional[SolveReport]]]" = (
            OrderedDict()
        )
        # One lock guards the LRU front and the hit/miss/corrupt/stale
        # counters: gets run concurrently on serve worker threads, and
        # unguarded `+= 1` / OrderedDict mutation would tear.  Disk I/O
        # happens outside the lock (atomic writes make that safe).
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stale = 0
        self._jitter = random.Random()

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
        payload = report.to_jsonable()
        payload["cached"] = False
        report_bytes = _canonical_bytes(payload)
        # Byte-identical to canonical_json({"schema", "key", "sha256",
        # "report"}), without encoding the report a second time.
        envelope = b"".join(
            (
                _entry_head(key),
                report_bytes,
                _entry_tail(hashlib.sha256(report_bytes).hexdigest()),
            )
        )
        data = gzip.compress(envelope) if self.compress else envelope
        path = atomic_write_bytes(
            self._object_path(key, self.compress),
            data,
            durable=self.durable,
            fault_point="store.put",
        )
        self._remember(key, report_bytes)
        reg = obs_metrics.registry()
        reg.counter("repro_store_puts_total", "Reports persisted").inc()
        reg.histogram(
            "repro_store_put_seconds", "Report persist latency (seconds)"
        ).observe(time.perf_counter() - started)
        return path

    def get(self, key: str) -> Optional["SolveReport"]:
        """Fetch, verify and rebuild the report stored under ``key``.

        Returns ``None`` — and removes the entry — when the entry is
        missing, unreadable, schema-mismatched, fails its digest check,
        comes from another engine version or does not rebuild, so
        callers always fall back to a fresh solve.  The memory front
        keeps the rebuilt report, so repeated gets of a key share it.
        """
        from repro.api.service import SolveReport

        report_bytes, report = self._lookup(key)
        if report_bytes is not None and report is None:
            try:
                report = SolveReport.from_jsonable(json.loads(report_bytes))
            except (ValueError, KeyError, TypeError, ReproError):
                # Verified bytes the repo's own layers refuse to rebuild.
                with self._lock:
                    self._memory.pop(key, None)
                self._condemn(self._find_object(key))
                report_bytes = None
        self._count_lookup(key, report_bytes, report)
        return report

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The canonical JSON bytes of the report stored under ``key``.

        Verified and classified like :meth:`get` (``None`` is a miss),
        but not rebuilt into a report: serve sends these bytes as the
        report's body.
        """
        report_bytes, report = self._lookup(key)
        self._count_lookup(key, report_bytes, report)
        return report_bytes

    def _lookup(self, key: str) -> "Tuple[Optional[bytes], Optional[SolveReport]]":
        """The memory front, then the disk entry; ``None`` bytes are a miss."""
        with self._lock:
            remembered = self._memory.get(key)
            if remembered is not None:
                self._memory.move_to_end(key)
                return remembered
        path = self._find_object(key)
        return (None if path is None else self._load_entry(key, path)), None

    def _count_lookup(
        self,
        key: str,
        report_bytes: Optional[bytes],
        report: Optional["SolveReport"],
    ) -> None:
        """Count a lookup as a hit (remembering what it read) or a miss."""
        if report_bytes is None:
            with self._lock:
                self.misses += 1
            _lookup_counter("miss").inc()
            return
        self._remember(key, report_bytes, report)
        with self._lock:
            self.hits += 1
        _lookup_counter("hit").inc()

    def _read_entry(self, path: Path) -> bytes:
        faults.point("store.get.read")
        return read_bytes(path)

    def _load_entry(self, key: str, path: Path) -> Optional[bytes]:
        """Read and verify the entry at ``path``: its report's bytes.

        ``None`` is a miss.  A transient ``OSError`` is retried
        (``repro_retry_total`` counts each attempt's outcome).  A
        vanished entry, or one this process may not read, is a miss left
        in place.  Bytes that are not a verified report are quarantined
        as ``corrupt``, and a sound report from another engine version
        is removed as ``stale``.
        """
        from repro.api.service import REPORT_SCHEMA
        from repro.core.engine.instrumentation import ENGINE_SCHEMA

        delay = READ_RETRY_FLOOR
        for attempt in range(1, READ_ATTEMPTS + 1):
            try:
                raw = self._read_entry(path)
                break
            except (gzip.BadGzipFile, EOFError, zlib.error):
                # A truncated or garbled gzip stream: the bytes are bad.
                _retry_counter("rejected").inc()
                return self._condemn(path)
            except (
                FileNotFoundError,
                IsADirectoryError,
                NotADirectoryError,
                PermissionError,
            ):
                # Gone (a prune or quarantine raced us) or not ours to
                # read: another attempt would meet the same world.
                _retry_counter("rejected").inc()
                return None
            except OSError:
                # Deleting the entry would turn an I/O blip into data
                # loss, so an outlasting failure is a miss, not corrupt.
                if attempt == READ_ATTEMPTS:
                    _retry_counter("exhausted").inc()
                    return None
                _retry_counter("retried").inc()
                delay = min(
                    READ_RETRY_CAP, self._jitter.uniform(READ_RETRY_FLOOR, 2 * delay)
                )
                time.sleep(delay)
        if attempt > 1:
            _retry_counter("recovered").inc()
        try:
            envelope = json.loads(raw.decode("utf-8"))
            if not isinstance(envelope, dict):
                raise ValueError("entry is not a JSON object")
            report_payload = envelope.get("report")
            if (
                not isinstance(report_payload, dict)
                or envelope.get("schema") != ENTRY_SCHEMA
                or envelope.get("key") != key
            ):
                raise ValueError("entry schema/key/report mismatch")
            digest = envelope.get("sha256")
            if not isinstance(digest, str):
                raise ValueError("entry digest is not a string")
            # put() writes only the canonical layout, so the report's
            # bytes lie between its head and tail.
            head, tail = _entry_head(key), _entry_tail(digest)
            if not (raw.startswith(head) and raw.endswith(tail)):
                raise ValueError("entry is not in canonical layout")
            report_bytes = raw[len(head) : len(raw) - len(tail)]
            if hashlib.sha256(report_bytes).hexdigest() != digest:
                raise ValueError("entry digest mismatch")
            # A report from another engine version would differ from a
            # cold solve of the same spec in its instrumentation.  Its
            # bytes are sound, so it is stale, not corrupt.
            instrumentation = report_payload.get("instrumentation") or {}
            if not isinstance(instrumentation, dict):
                raise ValueError("entry instrumentation is not an object")
            if instrumentation.get("engine") not in (None, ENGINE_SCHEMA):
                return self._retire_stale(path)
            if report_payload.get("schema") != REPORT_SCHEMA:
                raise ValueError("entry holds another report schema")
            return report_bytes
        except ValueError:
            # ValueError covers non-UTF-8 bytes and bad JSON.  Every
            # flavour of bad entry degrades to a miss, never propagates
            # to callers that promised to fall back to a solve.
            return self._condemn(path)

    def _condemn(self, path: Optional[Path]) -> None:
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

    def _quarantine(self, path: Optional[Path]) -> None:
        if path is None:
            return
        try:
            path.unlink()
        except OSError:
            pass

    def _remember(
        self, key: str, report_bytes: bytes, report: Optional["SolveReport"] = None
    ) -> None:
        with self._lock:
            self._memory[key] = (report_bytes, report)
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
        if max_age_seconds is not None:
            check_seconds("max_age_seconds", max_age_seconds, zero_ok=True)
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


_stores: Dict[str, ReportStore] = {}


def resolve_store(store: StoreLike) -> Optional[ReportStore]:
    """Coerce a ``store=`` argument into a :class:`ReportStore` (or None).

    ``None`` consults the ``REPRO_STORE`` environment variable — set it
    to a directory path to make every ``solve``/``solve_many`` in the
    process persistent without touching call sites.  A path (string or
    :class:`~pathlib.Path`, passed or from the environment) resolves to
    one store per directory for the life of the process, so its
    in-memory LRU front and counters accumulate across calls instead of
    resetting on every resolve.  A relative path is made absolute first,
    so a later change of working directory reaches another store rather
    than the first directory's memory front.  An existing store passes
    through.
    """
    if isinstance(store, ReportStore):
        return store
    if store is None:
        store = os.environ.get(STORE_ENV_VAR)
        if not store:
            return None
    root = os.path.abspath(store)
    if root not in _stores:
        _stores[root] = ReportStore(root)
    return _stores[root]
