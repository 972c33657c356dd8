"""repro.cluster — queue-based scale-out for spec batches.

Where :func:`repro.api.solve_many` pools within one process, this
package turns a batch into shared state that any number of *independent*
worker processes — on one host or several sharing a filesystem — drain
cooperatively:

* :mod:`repro.cluster.queue` is the file-backed work queue — atomic
  rename claims, leases, and crash-safe requeue of expired leases; any
  worker claims any pending task, so no coordinator partitions a batch;
* :mod:`repro.cluster.worker` is the claim → solve → store → complete
  loop behind ``python -m repro.cluster worker``;
* :mod:`repro.cluster.async_api` is the asyncio front end:
  ``solve_many_async`` / ``as_reports_completed`` stream
  :class:`~repro.api.service.SolveReport`s out of the shared
  :class:`repro.store.ReportStore` as workers land them.

``python -m repro.cluster drain batch.json --workers N`` runs the whole
pipeline — submit, N local workers, async gather — in one command.
"""

from repro.cluster.async_api import as_reports_completed, solve_many_async
from repro.cluster.queue import ClaimedTask, WorkQueue
from repro.cluster.worker import run_worker, spawn_local_workers, worker_command

__all__ = [
    "WorkQueue",
    "ClaimedTask",
    "run_worker",
    "spawn_local_workers",
    "worker_command",
    "solve_many_async",
    "as_reports_completed",
]
