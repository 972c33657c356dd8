"""A file-backed work queue with claim/lease/complete semantics.

The queue is a directory; a task is a JSON file holding one serialized
:class:`~repro.api.specs.ScenarioSpec`, named by the spec's canonical
key; a task's state is which subdirectory its file sits in::

    pending/<key>.json   submitted, unowned       (claim: rename → claimed/)
    claimed/<key>.json   leased to one worker     (complete: rename → done/)
    done/<key>.json      solved, report in the store
    failed/<key>.json    solve raised; error in failed/<key>.error
    leases/<key>.lease   sidecar per claimed task: owner + expiry
    attempts/<key>.json  lease expirations so far
    num_shards           the queue's shard count (absent: 1)

Every state transition is a single ``os.rename`` on one filesystem —
atomic on POSIX — so any number of independent worker processes can
claim from one queue with no locks and no coordinator: a contested
claim simply loses the rename race and moves on.  Crash safety comes
from leases: a claim writes a sidecar recording the owner and an expiry
time, and :meth:`WorkQueue.requeue_expired` (run by every worker between
claims) moves tasks whose lease has lapsed back to ``pending/``, so work
owned by a crashed or wedged worker is re-run by someone else.

Completion is idempotent by design: a worker that outlives its lease and
completes anyway finds its claim file gone and treats that as success —
the report it wrote to the shared :class:`repro.store.ReportStore` makes
the re-queued copy a store hit rather than a duplicate solve.

Because a file's name is its key, every question about one key — is it
queued, did it fail, is it done — reads that key's own paths and never
lists a state directory, which would grow with the queue's history.
Submission deduplicates by key, and a shard-pinned worker
(``python -m repro.cluster worker --shard K``) claims the pending keys
with ``shard_of(key, N) == K``, where N is the shard count of the last
submit: submitting under another count re-partitions every pending
task without touching it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Container, Dict, Iterable, List, Optional, Sequence, Union

from repro import faults
from repro.api.specs import ScenarioSpec
from repro.cluster.sharding import shard_of
from repro.obs import metrics as obs_metrics
from repro.util.errors import ConfigurationError, check_seconds
from repro.util.serialization import atomic_write_bytes, fsync_directory

TASK_SCHEMA = "WorkQueueTask/v1"
LEASE_SCHEMA = "WorkQueueLease/v1"
ATTEMPTS_SCHEMA = "WorkQueueAttempts/v1"

_STATES = ("pending", "claimed", "done", "failed")

#: Buckets for the per-task attempts histogram: attempts are small
#: integers, so the default latency buckets would bin them uselessly.
ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 13.0)

#: :meth:`WorkQueue.outcomes`' verdict for a done task whose report is
#: not in the store (pruned, quarantined, or a fresh store).
LOST = object()

# Crash seams for the fault-injection sweep: each is a precise spot a
# worker can die between two filesystem operations of one logical
# transition.  queue.submit.{write,rename,publish} are derived inside
# atomic_write_bytes.
faults.declare_point("queue.submit.write", "payload bytes of a submitted task")
faults.declare_point("queue.submit.rename", "before a submit's atomic rename")
faults.declare_point("queue.submit.publish", "after a submit's rename")
faults.declare_point("queue.claim.rename", "before the pending->claimed rename")
faults.declare_point("queue.claim.lease", "after the claim rename, before the lease write")
faults.declare_point("queue.complete.rename", "before the claimed->done rename")
faults.declare_point("queue.complete.lease", "after the done rename, before the lease drop")
faults.declare_point("queue.fail.rename", "before the claimed->failed rename")
faults.declare_point("queue.requeue.rename", "before the claimed->pending rename")
faults.declare_point("queue.requeue.lease", "after the requeue rename, before the lease drop")
faults.declare_point("queue.renew.write", "before a heartbeat lease rewrite")


@dataclass(frozen=True)
class ClaimedTask:
    """One leased unit of work: the spec payload plus its canonical key."""

    key: str
    payload: Dict[str, Any]
    worker: str = ""
    # Wall-clock claim time (0.0 for hand-built tasks); lets complete()
    # observe the claim→complete latency without re-reading the lease.
    claimed_at: float = 0.0

    @property
    def spec(self) -> ScenarioSpec:
        """The live spec this task asks to solve."""
        return ScenarioSpec.from_jsonable(self.payload["spec"])


class WorkQueue:
    """A shared directory of serialized specs with leased claims.

    Parameters
    ----------
    root:
        Queue directory (created on first use).
    lease_seconds:
        How long a claim stays owned without completing before
        :meth:`requeue_expired` hands it to another worker.  Workers
        heartbeat (:meth:`renew`) while solving, so this bounds
        *crash detection latency*, not solve duration.  Finite and
        positive: a NaN lease expires at once, an infinite one never.
    max_attempts:
        How many lease expirations a task survives before
        :meth:`requeue_expired` dead-letters it as poison instead of
        requeueing — a task that reliably kills its worker must not
        take down the whole fleet one worker at a time.
    durable:
        fsync directories around state-transition renames (and task,
        lease, attempts and shard-count writes) so queue state survives
        power loss.  Default on; turn off for throwaway queues in tight
        test loops.
    """

    def __init__(
        self,
        root: Union[str, Path],
        lease_seconds: float = 300.0,
        max_attempts: int = 5,
        durable: bool = True,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.root = Path(root)
        self.lease_seconds = check_seconds("lease_seconds", lease_seconds)
        self.max_attempts = int(max_attempts)
        self.durable = bool(durable)

    def _task(self, state: str, key: str) -> Path:
        return self.root / state / f"{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.root / "leases" / f"{key}.lease"

    def _attempts_path(self, key: str) -> Path:
        return self.root / "attempts" / f"{key}.json"

    def _error_path(self, key: str) -> Path:
        # The ".error" suffix keeps the sidecar out of _keys("failed").
        return self.root / "failed" / f"{key}.error"

    def _move(
        self, key: str, source: str, target: str, fault_point: Optional[str] = None
    ) -> bool:
        """One durable state transition; ``False`` when the task was not in ``source``."""
        path = self._task(target, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if fault_point is not None:
            faults.point(fault_point)
        try:
            os.rename(self._task(source, key), path)
        except FileNotFoundError:
            return False
        if self.durable:
            fsync_directory(path.parent)
            fsync_directory(self.root / source)
        return True

    def _keys(self, state: str) -> List[str]:
        """The keys of every task in ``state``, sorted (lists the directory)."""
        directory = self.root / state
        if not directory.exists():
            return []
        return sorted(p.stem for p in directory.iterdir() if p.suffix == ".json")

    def _num_shards(self) -> int:
        """The shard count of the last :meth:`submit` (1 before any)."""
        try:
            return int((self.root / "num_shards").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 1

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self, specs: Sequence[ScenarioSpec], num_shards: int = 1
    ) -> List[str]:
        """Enqueue specs (deduplicated by canonical key); returns their keys.

        A spec whose canonical key already has a task file in any state
        is skipped: submission is idempotent, so a gatherer can
        re-submit a batch containing keys another client already queued
        or finished.  ``num_shards`` becomes the queue's shard count,
        which shard-pinned claims partition every pending key by.
        """
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if num_shards != self._num_shards():
            atomic_write_bytes(
                self.root / "num_shards",
                f"{num_shards}\n".encode("utf-8"),
                durable=self.durable,
            )
        keys: List[str] = []
        for spec in specs:
            key = spec.canonical_key
            keys.append(key)
            # In transition order, so a task moving forward mid-check is
            # still seen in its next state.
            if any(self._task(state, key).exists() for state in _STATES):
                continue
            payload = {
                "schema": TASK_SCHEMA,
                "key": key,
                "spec": spec.to_jsonable(),
                "enqueued_at": time.time(),
            }
            atomic_write_bytes(
                self._task("pending", key),
                json.dumps(payload, sort_keys=True).encode("utf-8"),
                durable=self.durable,
                fault_point="queue.submit",
            )
        return keys

    # ------------------------------------------------------------------
    # the claim/complete lifecycle
    # ------------------------------------------------------------------
    def claim(
        self, worker_id: str, shard: Optional[int] = None
    ) -> Optional[ClaimedTask]:
        """Atomically take ownership of one pending task (or ``None``).

        ``shard`` restricts the scan to the keys that shard owns under
        the queue's shard count.  The winning transition is a rename
        into ``claimed/``; losing a race just moves on to the next
        candidate.
        """
        num_shards = self._num_shards() if shard is not None else 1
        for key in self._keys("pending"):
            if shard is not None and shard_of(key, num_shards) != shard:
                continue
            if not self._move(key, "pending", "claimed", "queue.claim.rename"):
                continue  # another worker won this one
            target = self._task("claimed", key)
            now = time.time()
            try:
                # Stamp the claim: rename preserves mtime, but the
                # missing-lease grace in requeue_expired must measure
                # time since *claiming*, not since submission.
                os.utime(target)
            except OSError:
                pass
            faults.point("queue.claim.lease")
            self._write_lease(key, worker_id, now, 0, now)
            try:
                payload = json.loads(target.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                # Unreadable payload (racing scavenger, torn submit):
                # hand the claim straight back rather than stranding it
                # in claimed/ under a fresh lease for a full window.
                self._move(key, "claimed", "pending")
                self._drop_lease(key)
                continue
            obs_metrics.registry().counter(
                "repro_queue_claims_total", "Tasks claimed from the queue"
            ).inc()
            return ClaimedTask(
                key=key, payload=payload, worker=worker_id, claimed_at=now
            )
        return None

    def _owns(self, task: ClaimedTask) -> bool:
        """Whether ``task``'s claim in ``claimed/`` still belongs to its worker.

        After a lease expires and the task is re-claimed, the *same
        file* in ``claimed/`` belongs to the successor — the original
        worker must not complete or fail it on its behalf.
        """
        lease = self._read_lease(task.key)
        return lease is None or lease.get("worker") == task.worker

    def renew(self, task: ClaimedTask, now: Optional[float] = None) -> bool:
        """Heartbeat: extend the lease on a claim this worker still owns.

        Returns ``True`` when the lease was pushed out another
        ``lease_seconds`` from ``now``, ``False`` when ownership is gone
        (the lease names a successor, or the claim file itself left
        ``claimed/``) — the caller's solve has been, or is about to be,
        re-executed elsewhere, and its eventual ``complete`` will be the
        idempotent no-op path.

        Renewal is what lets ``lease_seconds`` be a *crash detector*
        rather than an upper bound on solve time: a live worker renews
        every ``lease_seconds / 3`` and can run arbitrarily long, while
        a dead one stops renewing and loses the task within one window.
        """
        now = time.time() if now is None else now
        lease = self._read_lease(task.key)
        if lease is not None and lease.get("worker") != task.worker:
            return False
        if not self._task("claimed", task.key).exists():
            return False
        renewals = (int(lease.get("renewals", 0)) if lease is not None else 0) + 1
        claimed_at = (
            float(lease.get("claimed_at", task.claimed_at))
            if lease is not None
            else task.claimed_at
        )
        faults.point("queue.renew.write")
        self._write_lease(task.key, task.worker, claimed_at, renewals, now)
        obs_metrics.registry().counter(
            "repro_lease_renewals_total", "Heartbeat lease renewals"
        ).inc()
        return True

    def complete(self, task: ClaimedTask) -> None:
        """Mark a claimed task solved (idempotent; lease is released)."""
        if not self._owns(task):
            # Our lease expired and a successor re-claimed this key;
            # our report is already in the store, so this is a success —
            # but the claim (and its lease) now belongs to them.
            return
        attempts = self._read_requeues(task.key) + 1
        # A False move means our lease expired and the task was requeued
        # (and possibly re-done).  Our report is already in the store,
        # so this is a success, not an error.
        self._move(task.key, "claimed", "done", "queue.complete.rename")
        faults.point("queue.complete.lease")
        self._drop_lease(task.key)
        self._drop_attempts(task.key)
        reg = obs_metrics.registry()
        reg.counter("repro_queue_completes_total", "Tasks completed").inc()
        reg.histogram(
            "repro_task_attempts",
            "Execution attempts per completed task",
            buckets=ATTEMPT_BUCKETS,
        ).observe(float(attempts))
        if task.claimed_at:
            reg.histogram(
                "repro_queue_claim_to_complete_seconds",
                "Latency from claim to complete (seconds)",
            ).observe(max(0.0, time.time() - task.claimed_at))

    def fail(self, task: ClaimedTask, error: str) -> None:
        """Dead-letter a claimed task whose solve raised (terminal state).

        Retrying would only crash the next worker too (solves are
        deterministic), so a failed task parks in ``failed/`` with the
        error recorded alongside — keeping the queue drainable and the
        workers alive.  Idempotent, like :meth:`complete`.
        """
        if not self._owns(task):
            # A successor re-claimed this key after our lease lapsed;
            # their (possibly successful) attempt owns the outcome now —
            # dead-lettering it on their behalf would strand good work.
            return
        self._dead_letter(task.key, error)

    def _dead_letter(self, key: str, error: str) -> bool:
        """Move a claimed task to ``failed/`` with its error recorded.

        Returns whether the claim file moved; only then are its lease
        and attempts sidecars dropped, since a claim that left
        ``claimed/`` first belongs to whoever moved it.
        """
        atomic_write_bytes(
            self._error_path(key),
            json.dumps({"key": key, "error": error}, sort_keys=True).encode("utf-8"),
            durable=self.durable,
        )
        if not self._move(key, "claimed", "failed", "queue.fail.rename"):
            return False
        self._drop_lease(key)
        self._drop_attempts(key)
        return True

    def failures(self) -> Dict[str, str]:
        """Canonical key → recorded error message for failed tasks."""
        return {key: self._recorded_error(key) for key in self._keys("failed")}

    def _recorded_error(self, key: str) -> str:
        """The error the dead-lettered task ``key`` was failed with."""
        try:
            return json.loads(self._error_path(key).read_text(encoding="utf-8"))["error"]
        except (OSError, json.JSONDecodeError, KeyError):
            return "unknown error (sidecar missing or unreadable)"

    def outcomes(self, keys: Iterable[str], stored: Container[str]) -> Dict[str, Any]:
        """Where each of ``keys`` not in ``stored`` ended, if it did.

        ``stored`` holds the keys the caller found in the store.  Each
        other key maps to its recorded error when its task was
        dead-lettered, or to :data:`LOST` when its task is done but its
        report is gone; keys still pending or claimed are left out.
        Only the unstored keys' own files are read.
        """
        out: Dict[str, Any] = {}
        for key in keys:
            if key in stored:
                continue
            if self._task("failed", key).exists():
                out[key] = self._recorded_error(key)
            elif self._task("done", key).exists():
                out[key] = LOST
        return out

    def retry_failed(self, key: Optional[str] = None) -> int:
        """Move dead-lettered tasks back to ``pending/`` for another try.

        The recovery path after fixing a transient cause (disk full,
        OOM-killed worker): without it a failed key would block every
        future drain containing it, since submission dedupes against
        ``failed/`` and workers never scan it.  ``key`` retries one
        task; ``None`` retries them all.  Returns how many moved.
        """
        moved = 0
        for failed in self._keys("failed") if key is None else [key]:
            if not self._move(failed, "failed", "pending"):
                continue
            try:
                self._error_path(failed).unlink()
            except OSError:
                pass
            # A fresh start deserves a fresh attempt budget — without
            # this, a task dead-lettered as poison would re-poison on
            # its first post-retry expiry.
            self._drop_attempts(failed)
            moved += 1
        return moved

    def reopen(self, key: str) -> bool:
        """Move a *done* task back to ``pending/`` (report was lost).

        The recovery path for the rare case where a completed task's
        stored report is later found corrupt (and quarantined by the
        store): reopening puts the spec back in front of the workers.
        Returns whether a done marker for ``key`` was found and moved.
        """
        if not self._move(key, "done", "pending"):
            return False
        self._drop_attempts(key)
        return True

    def requeue_expired(self, now: Optional[float] = None) -> int:
        """Return lapsed claims to ``pending/``; returns how many moved.

        A claim is lapsed when its lease has expired, or when the lease
        sidecar is missing and the claim file itself is older than the
        lease window (covering a worker that died between the rename and
        the lease write).

        Each expiry bumps the task's attempt sidecar; a task whose
        expiry count reaches ``max_attempts`` is *poison* — it has taken
        down that many workers — and is dead-lettered to ``failed/``
        (error recorded, like :meth:`fail`) instead of being handed to
        the next victim.  Lease sidecars orphaned by a crash between a
        terminal rename and the lease drop are swept here too.
        """
        now = time.time() if now is None else now
        moved = 0
        for key in self._keys("claimed"):
            lease = self._read_lease(key)
            if lease is not None:
                if float(lease.get("expires_at", 0.0)) > now:
                    continue
            else:
                try:
                    claimed_at = self._task("claimed", key).stat().st_mtime
                except FileNotFoundError:
                    continue
                if now - claimed_at <= self.lease_seconds:
                    continue
            requeues = self._read_requeues(key) + 1
            if requeues >= self.max_attempts:
                error = (
                    f"poison task: lease expired {requeues} times "
                    f"(max_attempts={self.max_attempts})"
                )
                if self._dead_letter(key, error):
                    obs_metrics.registry().counter(
                        "repro_queue_poison_total",
                        "Tasks dead-lettered after exhausting max_attempts",
                    ).inc()
                continue
            self._write_requeues(key, requeues)
            if not self._move(key, "claimed", "pending", "queue.requeue.rename"):
                continue  # racing scavenger/completer got there first
            faults.point("queue.requeue.lease")
            self._drop_lease(key)
            moved += 1
        if moved:
            obs_metrics.registry().counter(
                "repro_queue_lease_expirations_total",
                "Lapsed claims returned to pending",
            ).inc(moved)
        self._sweep_orphan_leases()
        return moved

    def _sweep_orphan_leases(self) -> None:
        """Drop lease sidecars whose task is no longer in ``claimed/``.

        A worker that crashed between a terminal rename (done/failed/
        pending) and its ``_drop_lease`` leaves the sidecar behind; the
        stale worker id inside would otherwise confuse a future claim of
        the same key during the window before its fresh lease lands.
        """
        leases_dir = self.root / "leases"
        if not leases_dir.exists():
            return
        for sidecar in leases_dir.iterdir():
            if sidecar.suffix != ".lease":
                continue
            # Freshness check immediately before the unlink: a claim
            # landing mid-sweep re-creates claimed/<key>.json before (or
            # while) writing its lease, so checking here — not against a
            # stale snapshot — keeps live leases out of the sweep.
            if self._task("claimed", sidecar.stem).exists():
                continue
            try:
                sidecar.unlink()
            except OSError:
                pass

    def _read_requeues(self, key: str) -> int:
        """How many times this task's lease has lapsed so far."""
        try:
            data = json.loads(self._attempts_path(key).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, ValueError):
            return 0
        if not isinstance(data, dict) or data.get("schema") != ATTEMPTS_SCHEMA:
            return 0
        try:
            return int(data.get("requeues", 0))
        except (TypeError, ValueError):
            return 0

    def _write_requeues(self, key: str, requeues: int) -> None:
        atomic_write_bytes(
            self._attempts_path(key),
            json.dumps(
                {"schema": ATTEMPTS_SCHEMA, "requeues": requeues}, sort_keys=True
            ).encode("utf-8"),
            durable=self.durable,
        )

    def _drop_attempts(self, key: str) -> None:
        try:
            self._attempts_path(key).unlink()
        except OSError:
            pass

    def _write_lease(
        self, key: str, worker: str, claimed_at: float, renewals: int, now: float
    ) -> None:
        """The lease sidecar: ``worker`` owns ``key`` for ``lease_seconds``."""
        atomic_write_bytes(
            self._lease_path(key),
            json.dumps(
                {
                    "schema": LEASE_SCHEMA,
                    "worker": worker,
                    "claimed_at": claimed_at,
                    "expires_at": now + self.lease_seconds,
                    "renewals": renewals,
                },
                sort_keys=True,
            ).encode("utf-8"),
            durable=self.durable,
        )

    def _read_lease(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            data = json.loads(self._lease_path(key).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict) or data.get("schema") != LEASE_SCHEMA:
            return None
        return data

    def _drop_lease(self, key: str) -> None:
        try:
            self._lease_path(key).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Task counts per state."""
        return {state: len(self._keys(state)) for state in _STATES}

    def is_drained(self) -> bool:
        """Whether no task is pending or claimed (everything is done)."""
        return not self._keys("pending") and not self._keys("claimed")
