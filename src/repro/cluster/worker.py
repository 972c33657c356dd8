"""The cooperative queue worker: claim → solve → store → complete.

A worker owns no long-lived state: it drains tasks from a shared
:class:`~repro.cluster.queue.WorkQueue`, solves each spec through the
ordinary :func:`repro.api.service.solve` path with the shared
:class:`~repro.store.ReportStore` attached (so a key another worker —
or any earlier run — already solved is a store hit, not a duplicate
solve), and marks the task done.  Any number of workers, started at any
time on any host sharing the filesystem, cooperate on one batch; results
are bit-identical to a serial ``solve_many`` because spec construction
and the solvers are deterministic.

Start one from the shell with ``python -m repro.cluster worker`` or
in-process via :func:`run_worker`; :func:`spawn_local_workers` launches a
pool of subprocess workers for single-host scale-out and tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.cluster.queue import ClaimedTask, WorkQueue
from repro.store.report_store import ReportStore
from repro.util.backoff import ExponentialBackoff
from repro.util.errors import ConfigurationError


def _default_worker_id() -> str:
    return f"{os.uname().nodename if hasattr(os, 'uname') else 'host'}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class _Heartbeat:
    """Renews the lease on one claimed task from a daemon thread.

    Started when the solve begins, stopped when it ends: a solve that
    outlives ``lease_seconds`` keeps its lease fresh (renewal every
    third of the window leaves two chances before expiry), so the task
    is never concurrently re-executed by another worker — the
    double-execution bug the lease window used to cause.  When renewal
    reports lost ownership the beat stops and sets :attr:`lost`; the
    solve keeps running (its store put is still valuable and its
    ``complete`` is an idempotent no-op).
    """

    def __init__(self, queue: WorkQueue, task: ClaimedTask, interval: float) -> None:
        self._queue = queue
        self._task = task
        self._interval = interval
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{task.name}", daemon=True
        )

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                if not self._queue.renew(self._task):
                    self.lost = True
                    return
            except OSError:
                # A transient renew failure is survivable: the lease has
                # at least two-thirds of a window of slack, so just try
                # again next beat.
                continue

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def run_worker(
    queue: Union[str, Path, WorkQueue],
    store: Union[str, Path, ReportStore],
    worker_id: Optional[str] = None,
    shard: Optional[int] = None,
    poll_seconds: float = 0.2,
    max_tasks: Optional[int] = None,
    exit_when_empty: bool = False,
    relay: Optional[Union[str, Path]] = None,
    trace_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, int]:
    """Drain tasks from ``queue`` into ``store`` until told to stop.

    Parameters
    ----------
    queue, store:
        The shared work queue and report store (paths are opened, the
        queue with its default lease and attempt limit; pass a
        :class:`WorkQueue` to set ``lease_seconds`` or ``max_attempts``).
    worker_id:
        Lease owner label; defaults to ``<host>-<pid>-<nonce>``.
    shard:
        Restrict claims to one shard (cooperating workers may also run
        unpinned and claim anything).
    poll_seconds:
        Idle-poll *floor* between empty claim scans.  Consecutive empty
        scans back off exponentially (capped) so idle workers do not
        burn CPU; any claimed task resets the interval to the floor.
    max_tasks:
        Stop after completing this many tasks (``None`` = unbounded).
    exit_when_empty:
        Return once the queue is fully drained (pending and claimed both
        empty) instead of polling forever — the batch-mode contract used
        by ``python -m repro.cluster drain``.
    relay:
        Directory of a :class:`repro.serve.relay.EventRelay`.  When set,
        each solve streams its live engine events into the relay's
        per-run JSONL channel (keyed on the task's canonical key) and
        finishes the channel with an end marker — the bridge the serve
        layer's SSE endpoint tails, letting clients watch a solve that
        executes in *this* process from the server process.
    trace_dir:
        When set, every task's solve runs under a fresh
        :class:`repro.obs.tracing.Tracer` and its span tree is written to
        ``<trace_dir>/<canonical_key>.trace.json`` — one Chrome
        trace-event file per run, next to the relay channels in spirit.
        Stitch multi-worker runs with ``python -m repro.obs merge``.

    Returns counters: tasks completed, reports solved live, store hits.
    """
    if poll_seconds <= 0:
        raise ConfigurationError(f"poll_seconds must be positive, got {poll_seconds}")
    if not isinstance(queue, WorkQueue):
        queue = WorkQueue(queue)
    if not isinstance(store, ReportStore):
        store = ReportStore(store)
    worker_id = worker_id or _default_worker_id()

    from repro.api.service import solve  # deferred: keep worker import light

    event_relay = None
    if relay is not None:
        # Deferred too: the relay lives in the serve layer, and workers
        # without telemetry streaming must not pull it in.
        from repro.serve.relay import EventRelay

        event_relay = relay if isinstance(relay, EventRelay) else EventRelay(relay)

    stats = {"completed": 0, "solved": 0, "store_hits": 0, "failed": 0}
    backoff = ExponentialBackoff(poll_seconds)
    while True:
        try:
            queue.requeue_expired()
            task = queue.claim(worker_id, shard=shard)
        except OSError:
            # A failed scan or claim (injected or real) is an empty poll:
            # the next poll tries again, and the worker lives on.
            backoff.sleep()
            continue
        if task is None:
            if exit_when_empty and queue.is_drained():
                break
            backoff.sleep()
            continue
        backoff.reset()
        writer = (
            event_relay.open_writer(task.key) if event_relay is not None else None
        )
        trace_path = (
            Path(trace_dir) / f"{task.key}.trace.json"
            if trace_dir is not None
            else None
        )
        beat = _Heartbeat(queue, task, interval=queue.lease_seconds / 3.0).start()
        try:
            try:
                report = solve(
                    task.spec, store=store, on_event=writer, trace=trace_path
                )
            except Exception as exc:  # noqa: BLE001 - one bad spec must not kill the worker
                # Solves are deterministic, so retrying would crash the
                # next worker too: dead-letter the task and keep draining.
                error = f"{type(exc).__name__}: {exc}"
                if writer is not None:
                    writer.finish("failed", error=error)
                queue.fail(task, error)
                stats["failed"] += 1
                continue
        finally:
            beat.stop()
        if writer is not None:
            # End marker *after* the store put inside solve(): a tailer
            # that sees "end" can rely on the report being fetchable.
            writer.finish("done", cached=report.cached)
        if report.cached:
            stats["store_hits"] += 1
        else:
            stats["solved"] += 1
        queue.complete(task)
        stats["completed"] += 1
        if max_tasks is not None and stats["completed"] >= max_tasks:
            break
    return stats


def worker_command(
    queue_root: Union[str, Path],
    store_root: Union[str, Path],
    shard: Optional[int] = None,
    poll_seconds: float = 0.2,
    exit_when_empty: bool = True,
    lease_seconds: Optional[float] = None,
    relay_root: Optional[Union[str, Path]] = None,
    trace_dir: Optional[Union[str, Path]] = None,
) -> List[str]:
    """The ``python -m repro.cluster worker`` argv for these settings."""
    cmd = [
        sys.executable,
        "-m",
        "repro.cluster",
        "worker",
        "--queue",
        str(queue_root),
        "--store",
        str(store_root),
        "--poll",
        str(poll_seconds),
    ]
    if shard is not None:
        cmd.extend(["--shard", str(shard)])
    if exit_when_empty:
        cmd.append("--exit-when-empty")
    if lease_seconds is not None:
        cmd.extend(["--lease", str(lease_seconds)])
    if relay_root is not None:
        cmd.extend(["--relay", str(relay_root)])
    if trace_dir is not None:
        cmd.extend(["--trace-dir", str(trace_dir)])
    return cmd


@contextmanager
def spawn_local_workers(
    num_workers: int,
    queue_root: Union[str, Path],
    store_root: Union[str, Path],
    pin_shards: bool = False,
    poll_seconds: float = 0.1,
    exit_when_empty: bool = True,
    lease_seconds: Optional[float] = None,
    shutdown_timeout: Optional[float] = None,
    relay_root: Optional[Union[str, Path]] = None,
) -> Iterator[List[subprocess.Popen]]:
    """Run ``num_workers`` subprocess workers against one queue + store.

    With ``pin_shards`` every worker claims only its own shard
    (``shard=i`` of ``num_workers``); otherwise all workers compete for
    any task.  On exit the workers are waited for (batch mode) or
    terminated (polling mode); ``shutdown_timeout`` bounds the batch-mode
    wait — a reused queue may hold *foreign* pending tasks the workers
    would otherwise keep draining long after the caller's batch is done
    — after which the workers are terminated (their claimed tasks requeue
    via lease expiry).  A worker still running 5 s after its terminate
    is killed.
    """
    if num_workers < 1:
        raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    procs: List[subprocess.Popen] = []
    try:
        for index in range(num_workers):
            cmd = worker_command(
                queue_root,
                store_root,
                shard=index if pin_shards else None,
                poll_seconds=poll_seconds,
                exit_when_empty=exit_when_empty,
                lease_seconds=lease_seconds,
                relay_root=relay_root,
            )
            procs.append(subprocess.Popen(cmd, env=env))
        yield procs
        if exit_when_empty:
            for proc in procs:
                try:
                    proc.wait(timeout=shutdown_timeout)
                except subprocess.TimeoutExpired:
                    pass
    finally:
        # Whatever still runs is stopped: polling workers never exit on
        # their own, batch workers past shutdown_timeout may be draining
        # foreign tasks, and when the caller failed (timeout,
        # dead-lettered spec, interrupt) waiting for the drain would hold
        # it long past its own deadline.
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
