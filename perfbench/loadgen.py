"""Open-loop ticket generator for the ``serve_mix`` workload.

One process, two persistent HTTP/1.1 connections (one per sender
thread).  Tickets are due on a seeded schedule regardless of how the
server keeps up, and every ticket is timed from its due time, so a
stall delays the tickets queued behind it.  No socket options are set
and no connection is opened per request: the server's keep-alive
behaviour is measured as a client sees it.

* A *warm* ticket is ``POST /v1/solve`` (200, already stored) followed by
  ``GET /v1/reports/{key}``.
* A *cold* ticket is ``POST /v1/solve`` (202) followed by polls of
  ``GET /v1/reports/{key}`` every :data:`POLL_SECONDS` until 200.
"""

from __future__ import annotations

import heapq
import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

POLL_SECONDS = 0.1
CONNECTIONS = 2

_clock = time.perf_counter


@dataclass
class Ticket:
    index: int
    kind: str  # "warm" | "cold"
    entry: Dict
    due: float = 0.0
    done: Optional[float] = None
    key: Optional[str] = None
    body: Optional[bytes] = None
    error: Optional[str] = None


@dataclass
class Request:
    request_id: str
    seconds: float


@dataclass
class LoadResult:
    tickets: List[Ticket]
    requests: List[Request] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    backlog_samples: List[int] = field(default_factory=list)
    backlog_end: int = 0


class OpenLoop:
    def __init__(self, port: int, tickets: List[Ticket], window_end: float, deadline: float):
        self.port = port
        self.tickets = tickets
        self.window_end = window_end
        self.deadline = deadline
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._cv = threading.Condition()
        self._outstanding = len(tickets)
        self.result = LoadResult(tickets=tickets)
        self._ids = itertools.count()
        for ticket in tickets:
            self._push(ticket.due, "start", ticket)

    def _push(self, due: float, action: str, ticket: Ticket) -> None:
        heapq.heappush(self._heap, (due, next(self._seq), action, ticket))

    def _pop(self):
        with self._cv:
            while True:
                if self._outstanding == 0 or _clock() > self.deadline:
                    return None
                if self._heap:
                    due = self._heap[0][0]
                    wait = due - _clock()
                    if wait <= 0:
                        return heapq.heappop(self._heap)
                    self._cv.wait(min(wait, 0.05))
                else:
                    self._cv.wait(0.05)

    def _finish(self, ticket: Ticket, error: Optional[str] = None) -> None:
        ticket.done = _clock()
        ticket.error = error
        with self._cv:
            self._outstanding -= 1
            self._cv.notify_all()

    def _request(self, conn, ticket: Ticket, method: str, path: str, body: bytes = None):
        request_id = f"{ticket.index}-{next(self._ids)}"
        headers = {"X-Bench-Request": request_id}
        if body is not None:
            headers["Content-Type"] = "application/json"
        started = _clock()
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        seconds = _clock() - started
        self.result.requests.append(Request(request_id, seconds))
        return response.status, data

    def _backlog(self, now: float) -> int:
        return sum(1 for t in self.tickets if t.due <= now and t.done is None)

    def _sender(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            while True:
                item = self._pop()
                if item is None:
                    return
                _, _, action, ticket = item
                try:
                    self._act(conn, action, ticket)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                    self._finish(ticket, f"{type(exc).__name__}: {exc}")
        finally:
            conn.close()

    def _act(self, conn, action: str, ticket: Ticket) -> None:
        if action == "start":
            now = _clock()
            self.result.late_s.append(now - ticket.due)
            if now <= self.window_end:
                self.result.backlog_samples.append(self._backlog(now))
            status, data = self._request(
                conn, ticket, "POST", "/v1/solve", json.dumps(ticket.entry["spec"]).encode()
            )
            expected = 200 if ticket.kind == "warm" else 202
            if status != expected:
                self._finish(ticket, f"POST {status}: {data[:200]!r}")
                return
            ticket.key = json.loads(data)["key"]
            if ticket.kind == "cold":
                with self._cv:
                    self._push(_clock() + POLL_SECONDS, "poll", ticket)
                    self._cv.notify_all()
                return
        status, data = self._request(conn, ticket, "GET", f"/v1/reports/{ticket.key}")
        if status == 200:
            ticket.body = data
            self._finish(ticket)
        elif status == 202 and ticket.kind == "cold":
            with self._cv:
                self._push(_clock() + POLL_SECONDS, "poll", ticket)
                self._cv.notify_all()
        else:
            self._finish(ticket, f"GET {status}: {data[:200]!r}")

    def run(self) -> LoadResult:
        threads = [
            threading.Thread(target=self._sender, name=f"loadgen-{i}", daemon=True)
            for i in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        while _clock() < self.window_end:
            time.sleep(min(0.05, max(0.0, self.window_end - _clock())))
        self.result.backlog_end = self._backlog(self.window_end)
        for thread in threads:
            thread.join(timeout=max(1.0, self.deadline - _clock() + 5.0))
        return self.result
