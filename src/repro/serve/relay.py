"""Per-run JSONL event channels bridging solver and server processes.

A solve may execute anywhere — an inline server thread, a queue worker
on another host — but the SSE endpoint that streams its telemetry lives
in the server process.  The :class:`EventRelay` is the bridge: a
directory (conventionally next to the report store) holding one
append-only JSONL file per run, keyed on the scenario's
``canonical_key``.

* **Writer side** (the process running the solve): a
  :class:`RelayWriter` is installed as the ``on_event`` listener of
  :func:`repro.api.service.solve`, appending one JSON line per live
  :class:`~repro.core.engine.instrumentation.EngineEvent` — every event,
  including ones the run's bounded in-memory log drops.  When the solve
  finishes, :meth:`RelayWriter.finish` appends an *end marker* line
  (``{"kind": "end", "status": "done"|"failed", ...}``).  Each line is
  one small ``os.write`` on an ``O_APPEND`` descriptor, so concurrent
  readers never see a torn line.
* **Tailer side** (the server process): :meth:`EventRelay.tail` is a
  blocking generator that replays the channel from the beginning — a
  client connecting after the run finished still sees the full event
  history — then follows appends with capped-exponential-backoff polls
  until the end marker arrives.  Because a crashed worker may never
  write the marker, the tailer also accepts a ``finished`` predicate
  (e.g. "the report is in the store" / "the run record is terminal") and
  synthesizes an end marker after a short grace period once it holds.

The channel is advisory telemetry: losing one (pruned directory, worker
without ``--relay``) degrades a run's event stream to a bare end marker,
never the solve itself.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Union

from repro import faults
from repro.core.engine.instrumentation import EngineEvent
from repro.util.backoff import ExponentialBackoff
from repro.util.serialization import canonical_json

RELAY_SCHEMA = "RunEvents/v1"
END_KIND = "end"

faults.declare_point("relay.append", "one event line about to be appended")
faults.declare_point("relay.tail.read", "a tailer reading new channel bytes")


class RelayWriter:
    """Appends one JSON line per event to a run's relay channel.

    Callable, so it plugs directly into ``solve(..., on_event=writer)``
    and :func:`~repro.core.engine.instrumentation.event_tap`.  Usable as
    a context manager: the descriptor is closed on exit, and an
    exception leaving the block finishes the channel as ``failed`` if no
    end marker was written yet.
    """

    def __init__(self, path: Union[str, Path], fresh: bool = True) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        flags = os.O_CREAT | os.O_WRONLY | os.O_APPEND
        if fresh:
            flags |= os.O_TRUNC
        self._fd: Optional[int] = os.open(str(path), flags, 0o666)
        self.path = path
        self.finished = False
        self.events_written = 0

    def __call__(self, event: EngineEvent) -> None:
        self.append(event.to_jsonable())

    def append(self, payload: Dict[str, Any]) -> None:
        """Write one event line (a single atomic ``os.write``)."""
        if self._fd is None:
            return
        # The mangle seam simulates a writer dying mid-line: a truncated
        # suffix with no trailing newline, which tailers must skip.
        data = faults.mangle(
            "relay.append", (canonical_json(payload) + "\n").encode("utf-8")
        )
        os.write(self._fd, data)
        self.events_written += 1

    def finish(self, status: str = "done", **extra: Any) -> None:
        """Append the end marker and close the channel (idempotent)."""
        if self.finished or self._fd is None:
            return
        self.append({"kind": END_KIND, "status": status, **extra})
        self.finished = True
        self.close()

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "RelayWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is not None and not self.finished:
                self.finish("failed", error=f"{exc_type.__name__}: {exc}")
        finally:
            self.close()


class EventRelay:
    """A directory of per-run JSONL event channels keyed on canonical key."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.events.jsonl"

    def exists(self, key: str) -> bool:
        """Whether a channel for ``key`` has been opened (any state)."""
        return self.path_for(key).exists()

    def open_writer(self, key: str, fresh: bool = True) -> RelayWriter:
        """Open ``key``'s channel for appending (truncating by default).

        ``fresh=True`` is the per-attempt contract: a re-run (lease
        expiry, requeue) restarts the channel so tailers replay one
        coherent attempt, not two interleaved ones.
        """
        return RelayWriter(self.path_for(key), fresh=fresh)

    def events(self, key: str) -> list:
        """The channel's currently-persisted events (no waiting)."""
        path = self.path_for(key)
        if not path.exists():
            return []
        out = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn trailing line mid-append
        return out

    def tail(
        self,
        key: str,
        poll_seconds: float = 0.05,
        timeout: Optional[float] = None,
        finished: Optional[Callable[[], bool]] = None,
        grace_seconds: float = 1.0,
    ) -> Iterator[Dict[str, Any]]:
        """Replay then follow ``key``'s channel; yields event dicts.

        Terminates after yielding the end marker.  When ``finished``
        reports the run over but no marker arrives within
        ``grace_seconds`` (worker crashed, relay-less worker), a
        synthetic ``{"kind": "end", "synthetic": true}`` marker is
        yielded so consumers always get a terminal event.  Returns
        without a marker only on ``timeout`` — consumers surface that as
        their own timeout condition.
        """
        path = self.path_for(key)
        deadline = None if timeout is None else time.monotonic() + timeout
        backoff = ExponentialBackoff(poll_seconds, cap=0.5)
        buffer = b""
        handle = None
        finished_since: Optional[float] = None
        try:
            while True:
                if handle is None and path.exists():
                    handle = path.open("rb")
                progressed = False
                if handle is not None:
                    try:
                        faults.point("relay.tail.read")
                        chunk = handle.read()
                    except OSError:
                        # A failed read is an empty poll: the SSE stream
                        # stays up and the next poll reads again.
                        chunk = b""
                    if chunk:
                        buffer += chunk
                        while b"\n" in buffer:
                            line, buffer = buffer.split(b"\n", 1)
                            if not line.strip():
                                continue
                            try:
                                payload = json.loads(line)
                            except json.JSONDecodeError:
                                continue
                            progressed = True
                            yield payload
                            if payload.get("kind") == END_KIND:
                                return
                if progressed:
                    backoff.reset()
                    continue
                if finished is not None and finished():
                    # The run is over; give the writer a grace window to
                    # land its end marker (store-put happens just before
                    # finish()), then synthesize one.
                    now = time.monotonic()
                    if finished_since is None:
                        finished_since = now
                    elif now - finished_since >= grace_seconds:
                        yield {"kind": END_KIND, "status": "done", "synthetic": True}
                        return
                if deadline is not None and time.monotonic() > deadline:
                    return
                time.sleep(backoff.next_delay())
        finally:
            if handle is not None:
                handle.close()
