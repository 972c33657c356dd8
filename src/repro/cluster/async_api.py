"""Asyncio front end over the queue + store execution layer.

``solve_many_async`` is the distributed sibling of
:func:`repro.api.service.solve_many`: it submits a batch of specs to a
shared :class:`~repro.cluster.queue.WorkQueue`, lets whatever workers
are attached (local subprocesses, other hosts on the same filesystem)
drain it, and asynchronously collects the :class:`SolveReport`s from the
shared :class:`~repro.store.ReportStore` as they land.
``as_reports_completed`` is the streaming form — an async generator
yielding ``(index, report)`` the moment each key's report is persisted,
in completion order, so a caller can post-process early results while
the tail is still solving.

The store is the only result channel: a worker's final act per task is
an atomic ``store.put``, so a report's presence in the store *is* the
completion event, and collection never reads a torn payload.
"""

from __future__ import annotations

import asyncio
import time
from pathlib import Path
from typing import AsyncIterator, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.service import SolveReport, solve
from repro.api.specs import ScenarioSpec
from repro.cluster.queue import LOST, WorkQueue
from repro.store.report_store import ReportStore
from repro.util.backoff import ExponentialBackoff
from repro.util.errors import check_seconds


def _stalled_batch_message(
    waiting: Dict[str, List[int]], queue: WorkQueue, timeout: Optional[float]
) -> str:
    """What a stuck gather should tell the operator: who, and why.

    Names the unfinished canonical keys (truncated, a bounded number)
    and the queue's current state counts, so "the batch timed out"
    becomes actionable — a deep ``pending`` count means no workers are
    attached, a stuck ``claimed`` count means a worker died inside its
    lease window, and the keys identify *which* specs to inspect.
    """
    missing = sorted(waiting)
    shown = ", ".join(key[:12] + "…" for key in missing[:8])
    if len(missing) > 8:
        shown += f" (+{len(missing) - 8} more)"
    counts = queue.counts()
    return (
        f"{len(missing)} report(s) still missing after {timeout}s "
        f"[{shown}]; queue state: {counts['pending']} pending, "
        f"{counts['claimed']} claimed, {counts['done']} done, "
        f"{counts['failed']} failed — are workers attached to the queue?"
    )


def _coerce_queue(queue: Union[str, Path, WorkQueue]) -> WorkQueue:
    return queue if isinstance(queue, WorkQueue) else WorkQueue(queue)


def _coerce_store(store: Union[str, Path, ReportStore]) -> ReportStore:
    return store if isinstance(store, ReportStore) else ReportStore(store)


async def as_reports_completed(
    specs: Sequence[ScenarioSpec],
    queue: Union[str, Path, WorkQueue],
    store: Union[str, Path, ReportStore],
    poll_seconds: float = 0.05,
    timeout: Optional[float] = None,
    submit: bool = True,
) -> AsyncIterator[Tuple[int, SolveReport]]:
    """Submit a batch and stream ``(input_index, report)`` as reports land.

    Duplicate canonical keys resolve to one queued task; every input
    position is still yielded (sharing the completed report).  Raises
    ``TimeoutError`` when ``timeout`` seconds pass without the batch
    finishing — e.g. no worker is attached to the queue — naming the
    unfinished canonical keys and the queue's state counts; raises
    ``RuntimeError`` when a worker dead-letters one of the batch's
    specs (its recorded error is included), after yielding what landed.
    A key whose task is done but whose report is gone is solved inline.

    ``poll_seconds`` is the poll *floor*: consecutive empty polls back
    off exponentially (capped) so an idle gather does not spin on the
    store, and any landed report resets the interval to the floor.  It
    must be finite and positive, and ``timeout`` finite and non-negative
    (``ConfigurationError``, raised before the batch is submitted).
    """
    backoff = ExponentialBackoff(poll_seconds)
    if timeout is not None:
        check_seconds("timeout", timeout, zero_ok=True)
    queue = _coerce_queue(queue)
    store = _coerce_store(store)
    specs = list(specs)
    if submit:
        queue.submit(specs)

    waiting: Dict[str, List[int]] = {}
    for index, spec in enumerate(specs):
        waiting.setdefault(spec.canonical_key, []).append(index)

    deadline = None if timeout is None else time.monotonic() + timeout
    while waiting:
        landed = [key for key in waiting if store.contains(key)]
        outcomes = queue.outcomes(waiting, set(landed))
        lost = [key for key, outcome in outcomes.items() if outcome is LOST]
        for key in landed + lost:
            # A stored entry found corrupt (get() quarantines it and
            # returns None) or a done task whose report is gone is healed
            # here rather than re-queued: the task is already done, and
            # batch-mode workers may have exited, so a queued retry could
            # wait forever.  On a thread, so other coroutines keep running.
            report = store.get(key) if key not in outcomes else None
            if report is None:
                report = await asyncio.to_thread(
                    solve, specs[waiting[key][0]], store=store
                )
            for index in waiting.pop(key):
                yield index, report
        dead = sorted(key for key, outcome in outcomes.items() if outcome is not LOST)
        if dead:
            details = "; ".join(f"{key[:12]}…: {outcomes[key]}" for key in dead)
            raise RuntimeError(
                f"{len(dead)} spec(s) failed in the worker pool — {details}"
            )
        if landed or lost:
            backoff.reset()
            continue
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(_stalled_batch_message(waiting, queue, timeout))
        await asyncio.sleep(backoff.next_delay())


async def solve_many_async(
    specs: Sequence[ScenarioSpec],
    queue: Union[str, Path, WorkQueue],
    store: Union[str, Path, ReportStore],
    poll_seconds: float = 0.05,
    timeout: Optional[float] = None,
    submit: bool = True,
) -> List[SolveReport]:
    """Distributed ``solve_many``: queue the batch, gather in input order.

    The returned reports are bit-identical to a serial
    :func:`repro.api.service.solve_many` over the same specs (the
    workers run the same deterministic solve path), so callers can swap
    between in-process pooling and queue-based scale-out freely.
    Callers that already submitted the batch (e.g. before spawning
    batch-mode workers) pass ``submit=False`` to skip the re-scan.
    """
    specs = list(specs)
    results: List[Optional[SolveReport]] = [None] * len(specs)
    async for index, report in as_reports_completed(
        specs,
        queue,
        store,
        poll_seconds=poll_seconds,
        timeout=timeout,
        submit=submit,
    ):
        results[index] = report
    return [r for r in results if r is not None]
