"""The serve application: submission, execution, telemetry, status.

:class:`ServeApp` is the transport-independent core of the service —
the HTTP layer (:mod:`repro.serve.routes`) is a thin adapter over four
methods, each returning ``(http_status, payload)``:

* :meth:`submit` — parse + validate a ``ScenarioSpec`` (the existing
  ``from_jsonable`` path; malformed input is a structured 400), answer
  warm keys straight from the store (zero solver work), dedupe in-flight
  keys, and pass the rest through admission control (full queue → 429).
* :meth:`report` — store-first report lookup: 200 with the stored
  report's canonical JSON bytes once solved (never rebuilt or
  re-encoded), 202 while queued/running, 404 for unknown keys, 500 for
  dead-lettered runs.
* :meth:`event_stream` — the SSE source: tails the run's relay channel
  (replay + follow), so clients watch engine telemetry live even when
  the solve executes in a queue worker process.
* :meth:`status` — backpressure surface: admission depth and shed
  counts and the workers, from memory alone.  Store, queue and lookup
  totals come from ``cache stats``, ``python -m repro.cluster status``
  and ``GET /metrics``.

Execution is pluggable at construction:

* **inline** (default): ``inline_workers`` daemon threads consume the
  admission queue and run :func:`repro.api.service.solve` in-process,
  streaming events through ``on_event`` into the relay.
  ``inline_workers=0`` accepts work without executing it (useful for
  tests and for pure-frontend processes whose queue is drained
  elsewhere).
* **cluster**: a dispatcher thread feeds admitted runs into a
  :class:`repro.cluster.WorkQueue` (in admission priority order) and a
  collector thread finalises them as their reports land in the shared
  store — external ``python -m repro.cluster worker --relay ...``
  processes do the solving and write the telemetry channels.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro import faults
from repro.api.registry import default_registry
from repro.api.service import solve
from repro.api.specs import ScenarioSpec
from repro.obs import metrics as obs_metrics
from repro.serve.admission import (
    DEFAULT_HIGH_WATER,
    RETRY_AFTER_SECONDS,
    AdmissionController,
    AdmissionShed,
)
from repro.serve.breaker import OPEN, CircuitBreaker
from repro.serve.relay import EventRelay
from repro.serve.sse import sse_frames
from repro.store.report_store import ReportStore
from repro.util.backoff import ExponentialBackoff
from repro.util.errors import ConfigurationError, check_seconds

SERVICE_SCHEMA = "repro.serve/v1"

# The tenant a submission without a client name is charged to.
DEFAULT_CLIENT = "anonymous"
# Floor of the relay tailer's and the cluster collector's polling.
POLL_SECONDS = 0.05

_TERMINAL = ("done", "failed")

faults.declare_point(
    "serve.store.lookup",
    "a breaker-guarded store lookup (requests, collector, SSE tailer)",
)


class StoreUnavailable(Exception):
    """The store circuit breaker is open (or just tripped): answer 503."""

    def __init__(self, retry_after: float) -> None:
        super().__init__("report store unavailable")
        self.retry_after = max(0.1, float(retry_after))


def _error(kind: str, message: str, **extra: Any) -> Dict[str, Any]:
    return {"error": {"type": kind, "message": message}, **extra}


def _serve_counter(name: str, help_text: str):
    return obs_metrics.registry().counter(name, help_text)


def _reject_non_finite(literal: str) -> float:
    """``json.loads`` accepts ``NaN`` and ``±Infinity``; JSON does not."""
    raise ValueError(f"{literal} is not a JSON number")


@dataclass
class ServeConfig:
    """Everything a :class:`ServeApp` needs, CLI-flag-shaped.

    ``queue=None`` selects inline execution; a queue directory selects
    cluster execution (external workers drain it).  ``relay`` defaults
    to ``<store>/runs`` — the per-run JSONL channels live next to the
    store so workers sharing the store's filesystem reach them too.
    """

    store: Union[str, Path, ReportStore]
    queue: Optional[Union[str, Path]] = None
    relay: Optional[Union[str, Path]] = None
    inline_workers: int = 1
    high_water: int = DEFAULT_HIGH_WATER
    per_client_limit: Optional[int] = None
    sse_timeout: float = 300.0


@dataclass
class RunRecord:
    """One submitted run's lifecycle, as its report poll exposes it."""

    key: str
    spec: ScenarioSpec = field(repr=False)
    client: str
    priority: int
    state: str = "queued"
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "key": self.key,
            "state": self.state,
            "client": self.client,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            out["started_at"] = self.started_at
        if self.finished_at is not None:
            out["finished_at"] = self.finished_at
        if self.error is not None:
            out["error"] = self.error
        return out


class ServeApp:
    """Transport-independent service core (see module docstring)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        if config.inline_workers < 0:
            raise ConfigurationError(
                f"inline_workers must be >= 0, got {config.inline_workers}"
            )
        check_seconds("sse_timeout", config.sse_timeout, zero_ok=True)
        self.store = (
            config.store
            if isinstance(config.store, ReportStore)
            else ReportStore(config.store)
        )
        self.relay = EventRelay(
            config.relay if config.relay is not None else self.store.root / "runs"
        )
        self.queue = None
        if config.queue is not None:
            from repro.cluster.queue import WorkQueue

            self.queue = (
                config.queue
                if isinstance(config.queue, WorkQueue)
                else WorkQueue(config.queue)
            )
        self.mode = "cluster" if self.queue is not None else "inline"
        self.admission = AdmissionController(
            high_water=config.high_water,
            per_client_limit=config.per_client_limit,
        )
        self.registry = default_registry()
        # Store circuit breaker at its default threshold and cool-down:
        # while it is open, submits and reports shed with 503.
        self.breaker = CircuitBreaker()
        self._draining = False
        self.started_at = time.time()
        # Uptime is measured on the monotonic clock: an NTP step moving
        # time.time() backwards must never yield negative uptime.
        self._started_monotonic = time.monotonic()
        self._runs: Dict[str, RunRecord] = {}
        self._watched: Dict[str, Tuple[str, RunRecord]] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: list = []
        if self.mode == "inline":
            for index in range(config.inline_workers):
                self._spawn(self._inline_loop, f"serve-inline-{index}")
        else:
            self._spawn(self._dispatch_loop, "serve-dispatch")
            self._spawn(self._collect_loop, "serve-collect")

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _store_contains(self, key: str) -> bool:
        """``store.contains`` through the breaker (requests, collector, tailer).

        Raises :class:`StoreUnavailable` (→ 503 + Retry-After) when the
        breaker is open or this call pushed it over the threshold —
        shedding fast instead of stacking request threads onto failing
        I/O.
        """
        if not self.breaker.allow():
            raise StoreUnavailable(self.breaker.retry_after())
        try:
            faults.point("serve.store.lookup")
            result = self.store.contains(key)
        except OSError as exc:
            self.breaker.record_failure()
            raise StoreUnavailable(
                self.breaker.retry_after() or RETRY_AFTER_SECONDS
            ) from exc
        self.breaker.record_success()
        return result

    # ------------------------------------------------------------------
    # HTTP-facing operations: (status_code, payload)
    # ------------------------------------------------------------------
    def submit(
        self, raw: bytes, client: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/solve``: body is a spec object or an envelope.

        The envelope form ``{"spec": {...}, "client": "...", "priority": N}``
        sets tenancy fields; a bare spec object submits as the default
        client at priority 0 (lower priority value = scheduled sooner).
        """
        _serve_counter("repro_serve_submits_total", "Solve submissions received").inc()
        if self._draining:
            return 503, _error(
                "Draining",
                "server is draining; resubmit elsewhere or after restart",
                retry_after_seconds=RETRY_AFTER_SECONDS,
            )
        try:
            body = json.loads(raw.decode("utf-8"), parse_constant=_reject_non_finite)
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError included
            return 400, _error("InvalidJSON", str(exc))
        if not isinstance(body, dict):
            return 400, _error(
                "InvalidRequest", "body must be a JSON object (spec or envelope)"
            )
        priority = 0
        spec_data = body
        if "spec" in body:
            spec_data = body["spec"]
            client = body.get("client", client)
            priority = body.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            return 400, _error("InvalidRequest", "priority must be an integer")
        if client is not None and not isinstance(client, str):
            return 400, _error("InvalidRequest", "client must be a string")
        client = (client or DEFAULT_CLIENT)[:64]
        try:
            spec = ScenarioSpec.from_jsonable(spec_data)
            # Name resolution up front: an unregistered solver/topology/
            # routing would otherwise be accepted and dead-letter later.
            self.registry.solver(spec.solver)
            self.registry.topology(spec.topology.generator)
            self.registry.routing(spec.routing)
        except (ConfigurationError, TypeError, ValueError, KeyError) as exc:
            return 400, _error(type(exc).__name__, str(exc))
        key = spec.canonical_key
        links = {
            "report": f"/v1/reports/{key}",
            "events": f"/v1/runs/{key}/events",
        }
        try:
            warm = self._store_contains(key)
        except StoreUnavailable as exc:
            return 503, _error(
                "StoreUnavailable",
                "report store is unavailable; retry shortly",
                retry_after_seconds=exc.retry_after,
            )
        if warm:
            # Warm key: the ticket is immediately redeemable, no solver
            # work, no admission charge.
            _serve_counter(
                "repro_serve_warm_hits_total",
                "Submissions answered straight from the store",
            ).inc()
            return 200, {"key": key, "state": "done", "cached": True, **links}
        with self._lock:
            existing = self._runs.get(key)
            if existing is not None and existing.state not in _TERMINAL:
                return 202, {
                    "key": key,
                    "state": existing.state,
                    "deduplicated": True,
                    **links,
                }
            record = RunRecord(key=key, spec=spec, client=client, priority=priority)
            try:
                depth = self.admission.offer(client, record, priority=priority)
            except AdmissionShed as exc:
                _serve_counter(
                    "repro_serve_shed_total",
                    "Submissions shed by admission control (429)",
                ).inc()
                return 429, _error(
                    "AdmissionShed",
                    str(exc),
                    retry_after_seconds=exc.retry_after,
                    queue_depth=exc.depth,
                    high_water=exc.high_water,
                )
            self._runs[key] = record
        return 202, {
            "key": key,
            "state": "queued",
            "client": client,
            "priority": priority,
            "queue_depth": depth,
            **links,
        }

    def _stored_report(self, key: str) -> Optional[bytes]:
        """The stored report's bytes, or ``None`` (raises ``StoreUnavailable``)."""
        if self._store_contains(key):
            return self.store.get_bytes(key)
        return None

    def report(self, key: str) -> Tuple[int, Union[bytes, Dict[str, Any]]]:
        """``GET /v1/reports/{key}``: the report, or where it stands.

        A 200's payload is the report's canonical JSON bytes as the
        store keeps them; every other status carries a JSON object.
        """
        try:
            stored = self._stored_report(key)
            run = self._runs.get(key)
            if stored is None and run is not None and run.state == "done":
                # Executors store the report before they mark the run
                # done, so it may have landed after the lookup above:
                # look once more before calling it lost.
                stored = self._stored_report(key)
        except StoreUnavailable as exc:
            return 503, _error(
                "StoreUnavailable",
                "report store is unavailable; retry shortly",
                retry_after_seconds=exc.retry_after,
            )
        if stored is not None:
            return 200, stored
        if run is None:
            return 404, _error("NotFound", f"unknown canonical key {key!r}")
        if run.state == "failed":
            detail = {
                k: v for k, v in run.snapshot().items() if k != "error"
            }
            return 500, {
                **_error("SolveFailed", run.error or "solve failed"),
                **detail,
            }
        if run.state == "done":
            # Solved, but the store entry is gone (pruned or quarantined
            # after completion): the ticket cannot be redeemed — tell the
            # client to resubmit rather than poll forever.
            return 404, _error(
                "ReportLost",
                "run completed but its stored report is no longer available; "
                "resubmit the spec",
                **{"key": key},
            )
        return 202, run.snapshot()

    def event_stream(
        self, key: str, timeout: Optional[float] = None
    ) -> Optional[Iterator[bytes]]:
        """``GET /v1/runs/{key}/events``: SSE frames, or ``None`` = 404.

        Replays the run's full relay channel then follows it live, so a
        client connecting at any point — before, during or after the
        solve — sees every persisted event and a terminal ``end`` (or
        ``timeout``) frame.
        """
        run = self._runs.get(key)
        try:
            in_store = self._store_contains(key)
        except StoreUnavailable:
            # SSE can still serve from the relay channel while the store
            # is down; only store-derived knowledge degrades.
            in_store = False
        known = run is not None or in_store or self.relay.exists(key)
        if not known:
            return None
        _serve_counter(
            "repro_serve_sse_connections_total", "SSE event streams opened"
        ).inc()
        timeout = self.config.sse_timeout if timeout is None else timeout
        if run is None and not self.relay.exists(key):
            # Warm store key with no telemetry channel (solved elsewhere,
            # or the channel was pruned): a bare end marker.
            return sse_frames(iter([{"kind": "end", "status": "done", "cached": True}]))
        events = self.relay.tail(
            key,
            poll_seconds=POLL_SECONDS,
            timeout=timeout,
            finished=lambda: self._run_finished(key),
        )
        return sse_frames(
            events, timed_out_event={"key": key, "timeout_seconds": timeout}
        )

    def status(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/status``: admission and workers, from memory alone.

        It reads no store entry, queue directory or run table, so its
        cost does not grow with the history the process has served.
        """
        return 200, {
            "service": SERVICE_SCHEMA,
            "mode": self.mode,
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "draining": self._draining,
            "circuit": self.breaker.snapshot(),
            "admission": self.admission.snapshot(),
            "workers": {
                "mode": self.mode,
                "inline_workers": (
                    self.config.inline_workers if self.mode == "inline" else 0
                ),
                "active": self.admission.active,
            },
        }

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /healthz``: liveness (always) and readiness (gated).

        The process answering at all is liveness.  Readiness — 200 vs
        503 — means "send this instance traffic": it fails while the
        server drains or while the store circuit breaker is open, so a
        load balancer rotates the instance out exactly when submits
        would shed anyway.
        """
        ready = not self._draining and self.breaker.state != OPEN
        payload = {
            "live": True,
            "ready": ready,
            "draining": self._draining,
            "mode": self.mode,
            "circuit": self.breaker.snapshot(),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
        }
        return (200 if ready else 503), payload

    def endpoints(self) -> Tuple[int, Dict[str, Any]]:
        """``GET /``: a tiny self-describing index for curl users."""
        return 200, {
            "service": SERVICE_SCHEMA,
            "endpoints": {
                "POST /v1/solve": "submit a ScenarioSpec (or {spec, client, "
                "priority} envelope); returns its canonical_key ticket",
                "GET /v1/reports/{key}": "fetch the SolveReport (202 while "
                "in flight)",
                "GET /v1/runs/{key}/events": "SSE stream of live engine "
                "telemetry (oracle/phase/congestion events, then end)",
                "GET /v1/status": "admission depth and shed counts, workers",
                "GET /healthz": "liveness/readiness (503 while draining "
                "or while the store circuit breaker is open)",
                "GET /metrics": "Prometheus text exposition of the "
                "process metrics registry (store/queue/engine/serve)",
            },
        }

    def metrics_text(self) -> str:
        """``GET /metrics``: the registry in Prometheus text format."""
        return obs_metrics.registry().render_prometheus()

    # ------------------------------------------------------------------
    # execution backends
    # ------------------------------------------------------------------
    def _run_finished(self, key: str) -> bool:
        """The SSE tailer's ``finished`` predicate, polled on empty reads."""
        run = self._runs.get(key)
        if run is not None and run.state in _TERMINAL:
            return True
        try:
            return self._store_contains(key)
        except StoreUnavailable:
            # The tailer keeps following the relay; the store's verdict
            # just isn't available this round.
            return False

    def _finish(self, client: str, run: RunRecord, error: Optional[str] = None) -> None:
        """End ``run``: done, or failed with ``error``; release its slot."""
        run.error = error
        run.state = "done" if error is None else "failed"
        run.finished_at = time.time()
        with self._lock:
            self._watched.pop(run.key, None)
        self.admission.finish(client)

    def _inline_loop(self) -> None:
        """Inline executor: admission queue → solve-with-relay → store."""
        while not self._stop.is_set():
            taken = self.admission.take(timeout=0.1)
            if taken is None:
                continue
            client, run = taken
            run.state = "running"
            run.started_at = time.time()
            error = None
            try:
                # On an exception the writer ends the channel as failed.
                with self.relay.open_writer(run.key) as writer:
                    report = solve(run.spec, store=self.store, on_event=writer)
                    writer.finish("done", cached=report.cached)
            except Exception as exc:  # noqa: BLE001 - a bad spec must not kill the executor
                error = f"{type(exc).__name__}: {exc}"
            self._finish(client, run, error)

    def _dispatch_loop(self) -> None:
        """Cluster dispatcher: admission queue → work queue, in priority order."""
        while not self._stop.is_set():
            taken = self.admission.take(timeout=0.1)
            if taken is None:
                continue
            client, run = taken
            try:
                self.queue.submit([run.spec])
            except Exception as exc:  # noqa: BLE001 - submission failure is the run's failure
                self._finish(client, run, f"{type(exc).__name__}: {exc}")
                continue
            run.state = "running"
            run.started_at = time.time()
            with self._lock:
                self._watched[run.key] = (client, run)

    def _collect_loop(self) -> None:
        """Cluster collector: finalise watched runs as reports land."""
        from repro.cluster.queue import LOST

        backoff = ExponentialBackoff(POLL_SECONDS, cap=1.0)
        reopened: set = set()
        while not self._stop.is_set():
            with self._lock:
                watched = dict(self._watched)
            finished: Dict[str, Optional[str]] = {}  # key -> error (None: done)
            try:
                for key in watched:
                    if self._store_contains(key):
                        finished[key] = None
                for key, outcome in self.queue.outcomes(watched, finished).items():
                    if outcome is not LOST:
                        finished[key] = outcome
                    elif key not in reopened:
                        # Done, but the report is gone (store pruned or
                        # quarantined): put the spec back in front of the
                        # long-lived workers, once.
                        self.queue.reopen(key)
                        reopened.add(key)
            except (StoreUnavailable, OSError):
                pass  # an empty poll for the keys not reached; they stay watched
            for key, error in finished.items():
                client, run = watched[key]
                self._finish(client, run, error)
            if finished:
                backoff.reset()
                continue
            self._stop.wait(backoff.next_delay())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Graceful shutdown: stop admitting, finish in-flight, flush markers.

        The SIGTERM path.  New submits shed with 503 ``Draining`` the
        moment this is called (and ``/healthz`` stops reporting ready,
        rotating the instance out of a load balancer).  Then the
        admission queue and active runs are given ``timeout`` seconds to
        finish; whatever is still non-terminal afterwards is marked
        failed and its relay channel gets an end marker, so no SSE
        client is left hanging on a stream whose writer is about to die.
        Finally the executor threads stop (:meth:`close`).  ``timeout``
        is ``None`` (wait for every run) or finite and non-negative.
        """
        if timeout is not None:
            check_seconds("drain timeout", timeout, zero_ok=True)
        self._draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                watched = len(self._watched)
            if self.admission.depth == 0 and self.admission.active == 0 and watched == 0:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            if self._stop.wait(0.05):
                break
        interrupted = 0
        with self._lock:
            leftovers = [
                run for run in self._runs.values() if run.state not in _TERMINAL
            ]
            self._watched.clear()
        for run in leftovers:
            run.state = "failed"
            run.error = "server draining"
            run.finished_at = time.time()
            try:
                # fresh=False: append the marker to whatever the channel
                # already holds instead of truncating a partial run.
                self.relay.open_writer(run.key, fresh=False).finish(
                    "failed", error="server draining"
                )
            except OSError:
                pass
            interrupted += 1
        self.close()
        return {"draining": True, "interrupted_runs": interrupted}

    def close(self, timeout: float = 2.0) -> None:
        """Stop the executor threads (daemonic, so this is best-effort)."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
