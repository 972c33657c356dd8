"""Tests for the ``repro.serve`` subsystem and its satellite plumbing.

Covers the full stack: the ExponentialBackoff primitive, admission
control, relay channels, SSE framing, the transport-independent
ServeApp, the real HTTP server end-to-end (submit → poll → report
bit-identical to a direct ``solve``; SSE congestion telemetry; 429
shedding; structured 400s; warm re-submits with zero solver calls),
cluster-mode dispatch through a WorkQueue, the thread-local engine
event tap, dropped-event accounting, and the
``as_reports_completed`` timeout diagnostics.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro.serve.app as serve_app_module
from repro.api.service import solve
from repro.api.specs import ArrivalSpec, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.cluster.async_api import as_reports_completed
from repro.cluster.queue import WorkQueue
from repro.cluster.worker import run_worker
from repro.core.engine.instrumentation import Instrumentation, event_tap
from repro.faults import fault_scope
from repro.serve import (
    AdmissionController,
    AdmissionShed,
    CircuitBreaker,
    EventRelay,
    ServeApp,
    ServeConfig,
    format_sse,
    make_server,
    parse_sse_line,
    sse_frames,
)
from repro.serve.routes import ServeRequestHandler
from repro.store.report_store import ReportStore
from repro.util.backoff import ExponentialBackoff
from repro.util.errors import ConfigurationError
from repro.util.serialization import canonical_json


def small_spec(seed: int = 5, **overrides) -> ScenarioSpec:
    """A fast offline scenario (sub-second solve); ``seed`` varies the key."""
    fields = dict(
        topology=TopologySpec(
            generator="paper_flat", params={"num_nodes": 12, "capacity": 100.0}, seed=3
        ),
        workload=WorkloadSpec(sizes=(3,), demand=10.0, seed=seed),
        routing="ip",
        solver="max_flow",
        solver_params={"approximation_ratio": 0.7},
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def online_spec() -> ScenarioSpec:
    """An online scenario — its engine emits ``congestion`` events."""
    return small_spec(
        workload=WorkloadSpec(sizes=(3, 2), demand=10.0, seed=5),
        solver="online",
        solver_params={"sigma": 10.0},
        arrivals=ArrivalSpec(replication=2, seed=11, demand=1.0),
    )


def strip_volatile(payload: dict) -> dict:
    """Drop the non-deterministic report fields for bit-identity checks."""
    return {
        k: v
        for k, v in payload.items()
        if k not in ("wall_seconds", "cached", "instrumentation")
    }


# ----------------------------------------------------------------------
# ExponentialBackoff (satellite: capped backoff on empty polls)
# ----------------------------------------------------------------------
class TestExponentialBackoff:
    def test_doubles_from_floor_and_caps(self):
        backoff = ExponentialBackoff(0.1, cap=0.5)
        delays = [backoff.next_delay() for _ in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_reset_restores_floor(self):
        backoff = ExponentialBackoff(0.05)
        backoff.next_delay()
        backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() == 0.05

    def test_default_cap_covers_large_floors(self):
        # floor above the default cap: the cap must not undercut the floor
        backoff = ExponentialBackoff(5.0)
        assert backoff.next_delay() == 5.0
        assert backoff.next_delay() == 5.0

    def test_rejects_bad_parameters(self):
        for floor in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                ExponentialBackoff(floor)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_priority_order_fifo_within_level(self):
        adm = AdmissionController(high_water=10)
        adm.offer("a", "low1", priority=5)
        adm.offer("b", "hi", priority=0)
        adm.offer("a", "low2", priority=5)
        order = [adm.take(timeout=0)[1] for _ in range(3)]
        assert order == ["hi", "low1", "low2"]

    def test_high_water_sheds(self):
        adm = AdmissionController(high_water=2)
        adm.offer("a", 1)
        adm.offer("a", 2)
        with pytest.raises(AdmissionShed) as excinfo:
            adm.offer("b", 3)
        assert excinfo.value.depth == 2
        assert excinfo.value.high_water == 2
        assert adm.snapshot()["shed"] == 1

    def test_per_client_limit(self):
        adm = AdmissionController(high_water=10, per_client_limit=1)
        adm.offer("noisy", 1)
        with pytest.raises(AdmissionShed):
            adm.offer("noisy", 2)
        adm.offer("quiet", 3)  # other tenants unaffected

    def test_taken_run_holds_its_slot_until_finish(self):
        adm = AdmissionController(high_water=2, per_client_limit=1)
        adm.offer("a", 1)
        assert adm.take(timeout=0) == ("a", 1)
        with pytest.raises(AdmissionShed):
            adm.offer("a", 2)  # a's one run is running, not finished
        adm.offer("b", 3)
        assert adm.take(timeout=0) == ("b", 3)
        with pytest.raises(AdmissionShed) as excinfo:
            adm.offer("c", 4)  # nothing queued, two runs unfinished
        assert excinfo.value.depth == 0
        adm.finish("a")
        adm.offer("a", 5)
        snapshot = adm.snapshot()
        assert snapshot["unfinished_per_client"] == {"a": 1, "b": 1}
        assert (snapshot["depth"], snapshot["active"], snapshot["shed"]) == (1, 1, 2)

    def test_take_timeout_and_active_accounting(self):
        adm = AdmissionController()
        assert adm.take(timeout=0.01) is None
        adm.offer("c", "item")
        client, item = adm.take(timeout=0.01)
        assert (client, item) == ("c", "item")
        assert adm.active == 1
        adm.finish(client)
        assert adm.active == 0
        assert adm.snapshot()["completed"] == 1


# ----------------------------------------------------------------------
# Event relay channels
# ----------------------------------------------------------------------
class TestEventRelay:
    def test_writer_append_finish_and_replay(self, tmp_path):
        relay = EventRelay(tmp_path)
        writer = relay.open_writer("k1")
        writer.append({"kind": "oracle", "step": 1})
        writer.finish("done", cached=False)
        writer.finish("done")  # idempotent
        events = relay.events("k1")
        assert [e["kind"] for e in events] == ["oracle", "end"]
        assert events[-1]["status"] == "done"

    def test_tail_replays_completed_channel(self, tmp_path):
        relay = EventRelay(tmp_path)
        with relay.open_writer("k2") as writer:
            writer.append({"kind": "congestion", "step": 1, "max_congestion": 0.5})
            writer.finish("done")
        seen = list(relay.tail("k2", timeout=2.0))
        assert [e["kind"] for e in seen] == ["congestion", "end"]

    def test_tail_synthesizes_end_when_finished(self, tmp_path):
        relay = EventRelay(tmp_path)
        writer = relay.open_writer("k3")
        writer.append({"kind": "oracle", "step": 1})
        writer.close()  # crashed worker: no end marker
        seen = list(
            relay.tail("k3", timeout=5.0, finished=lambda: True, grace_seconds=0.1)
        )
        assert seen[-1]["kind"] == "end"
        assert seen[-1].get("synthetic") is True

    def test_tail_times_out_without_marker(self, tmp_path):
        relay = EventRelay(tmp_path)
        relay.open_writer("k4").close()
        assert list(relay.tail("k4", timeout=0.2)) == []

    def test_context_manager_marks_failure(self, tmp_path):
        relay = EventRelay(tmp_path)
        with pytest.raises(RuntimeError):
            with relay.open_writer("k5") as writer:
                writer.append({"kind": "oracle", "step": 1})
                raise RuntimeError("boom")
        end = relay.events("k5")[-1]
        assert end["kind"] == "end" and end["status"] == "failed"
        assert "boom" in end["error"]

    def test_tail_recovers_from_writer_dead_mid_event(self, tmp_path):
        # Crash-recovery contract: a writer that dies mid-append leaves a
        # torn, newline-less suffix on the channel.  A follower must (a)
        # never surface that partial line as an event and (b) still get a
        # terminal marker — synthesized once the run is known finished.
        relay = EventRelay(tmp_path)
        writer = relay.open_writer("k6")
        writer.append({"kind": "oracle", "step": 1, "queries": 4.0})
        with fault_scope("relay.append:truncate=0.4"):
            writer.append({"kind": "congestion", "step": 2, "max_congestion": 9.9})
        writer.close()  # died before finish(): no end marker
        raw = relay.path_for("k6").read_bytes()
        assert not raw.endswith(b"\n")  # the torn suffix really is there
        seen = list(
            relay.tail("k6", timeout=5.0, finished=lambda: True, grace_seconds=0.1)
        )
        assert [e["kind"] for e in seen] == ["oracle", "end"]
        assert seen[-1].get("synthetic") is True
        assert all(e.get("max_congestion") != 9.9 for e in seen)

    def test_tail_survives_transient_read_faults(self, tmp_path):
        relay = EventRelay(tmp_path)
        with relay.open_writer("k7") as writer:
            writer.append({"kind": "oracle", "step": 1})
            writer.finish("done")
        with fault_scope("relay.tail.read:raisex2"):
            seen = list(relay.tail("k7", timeout=5.0))
        assert [e["kind"] for e in seen] == ["oracle", "end"]


# ----------------------------------------------------------------------
# SSE framing
# ----------------------------------------------------------------------
class TestSSE:
    def test_format_and_parse_roundtrip(self):
        frame = format_sse({"kind": "congestion", "step": 3}, event="congestion")
        state: dict = {}
        parsed = None
        for line in frame.split(b"\n"):
            parsed = parse_sse_line(line + b"\n", state) or parsed
        assert parsed is not None
        name, data = parsed
        assert name == "congestion"
        assert json.loads(data)["step"] == 3

    def test_timeout_frame_when_no_end(self):
        frames = list(
            sse_frames(iter([{"kind": "oracle"}]), timed_out_event={"key": "x"})
        )
        assert frames[-1].startswith(b"event: timeout\n")

    def test_no_timeout_frame_after_end(self):
        frames = list(
            sse_frames(iter([{"kind": "end"}]), timed_out_event={"key": "x"})
        )
        assert len(frames) == 1 and frames[0].startswith(b"event: end\n")


# ----------------------------------------------------------------------
# ServeApp over real HTTP (inline mode)
# ----------------------------------------------------------------------
@pytest.fixture
def http_server(tmp_path):
    """A live inline-mode server on an ephemeral port."""
    app = ServeApp(ServeConfig(store=tmp_path / "store"))
    server = make_server(app, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield app, base
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        thread.join(timeout=2)


def http_post(url: str, body: bytes, headers: dict = None) -> tuple:
    req = urllib.request.Request(url, data=body, method="POST", headers=headers or {})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err), dict(err.headers)


def http_get(url: str) -> tuple:
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


def poll_report(base: str, key: str, deadline: float = 30.0) -> dict:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        code, payload = http_get(f"{base}/v1/reports/{key}")
        if code == 200:
            return payload
        assert code == 202, payload
        time.sleep(0.02)
    raise AssertionError(f"report {key[:12]} never landed")


class TestServeHTTP:
    def test_submit_poll_report_bit_identical(self, http_server):
        _, base = http_server
        spec = small_spec()
        code, ticket, _ = http_post(
            f"{base}/v1/solve", json.dumps(spec.to_jsonable()).encode()
        )
        assert code == 202
        assert ticket["key"] == spec.canonical_key
        served = poll_report(base, ticket["key"])
        direct = solve(spec).to_jsonable()
        assert strip_volatile(served) == strip_volatile(direct)

    def test_report_body_is_compact_canonical_json(self, http_server):
        app, base = http_server
        spec = small_spec(seed=34)
        report = solve(spec, store=app.store)
        with urllib.request.urlopen(f"{base}/v1/reports/{spec.canonical_key}") as resp:
            assert resp.headers["Content-Type"] == "application/json"
            body = resp.read()
        assert body == canonical_json(report.to_jsonable()).encode()

    def test_sse_streams_congestion_before_end(self, http_server):
        _, base = http_server
        spec = online_spec()
        code, ticket, _ = http_post(
            f"{base}/v1/solve", json.dumps(spec.to_jsonable()).encode()
        )
        assert code == 202
        kinds = []
        url = f"{base}/v1/runs/{ticket['key']}/events?timeout=30"
        state: dict = {}
        with urllib.request.urlopen(url) as resp:
            assert resp.headers["Content-Type"].startswith("text/event-stream")
            for raw in resp:
                frame = parse_sse_line(raw, state)
                if frame is None:
                    continue
                kinds.append(frame[0])
                if frame[0] == "end":
                    break
        assert kinds[-1] == "end"
        assert kinds.count("congestion") >= 1
        assert kinds.index("congestion") < kinds.index("end")

    def test_sse_timeout_must_be_finite_and_non_negative(self, http_server):
        # A NaN or infinite timeout would hold a server thread for as
        # long as the run stays unfinished.
        _, base = http_server
        body = json.dumps(small_spec().to_jsonable()).encode()
        code, ticket, _ = http_post(f"{base}/v1/solve", body)
        assert code == 202
        poll_report(base, ticket["key"])
        events = f"{base}/v1/runs/{ticket['key']}/events"
        for bad in ("nan", "inf", "-inf", "-5", "soon"):
            try:
                with urllib.request.urlopen(f"{events}?timeout={bad}", timeout=10) as resp:
                    code, payload = resp.status, None
            except urllib.error.HTTPError as err:
                code, payload = err.code, json.load(err)
            assert code == 400, bad
            assert payload["error"]["type"] == "InvalidRequest"
        with urllib.request.urlopen(f"{events}?timeout=0", timeout=10) as resp:
            assert resp.status == 200

    def test_shed_returns_429_with_retry_after(self, tmp_path):
        # inline_workers=0: nothing drains admission, so with
        # high_water=1 the second submission deterministically sheds.
        app = ServeApp(
            ServeConfig(store=tmp_path / "store", inline_workers=0, high_water=1)
        )
        server = make_server(app, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            first = json.dumps(small_spec().to_jsonable()).encode()
            second = json.dumps(small_spec(seed=99).to_jsonable()).encode()
            code, _, _ = http_post(f"{base}/v1/solve", first)
            assert code == 202
            code, payload, headers = http_post(f"{base}/v1/solve", second)
            assert code == 429
            assert payload["error"]["type"] == "AdmissionShed"
            assert int(headers["Retry-After"]) >= 1
            code, status = http_get(f"{base}/v1/status")
            assert status["admission"]["shed"] == 1
            assert status["admission"]["depth"] == 1
        finally:
            server.shutdown()
            server.server_close()
            app.close()

    def test_malformed_spec_is_structured_400(self, http_server):
        _, base = http_server
        cases = [
            b"{not json",
            json.dumps({"no_such_field": 1}).encode(),
            json.dumps(
                {**small_spec().to_jsonable(), "solver": "no_such_solver"}
            ).encode(),
            json.dumps({"spec": small_spec().to_jsonable(), "priority": "high"}).encode(),
            json.dumps(small_spec().to_jsonable())
            .replace('"demand": 10.0', '"demand": Infinity')
            .encode(),
        ]
        for body in cases:
            code, payload, _ = http_post(f"{base}/v1/solve", body)
            assert code == 400, body
            assert set(payload["error"]) == {"type", "message"}

    def test_warm_resubmit_zero_solver_calls(self, http_server, monkeypatch):
        app, base = http_server
        spec = small_spec()
        body = json.dumps(spec.to_jsonable()).encode()
        code, ticket, _ = http_post(f"{base}/v1/solve", body)
        assert code == 202
        poll_report(base, ticket["key"])
        calls = []
        monkeypatch.setattr(
            serve_app_module,
            "solve",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(
                AssertionError("solver invoked on warm key")
            ),
        )
        code, payload, _ = http_post(f"{base}/v1/solve", body)
        assert code == 200
        assert payload["cached"] is True
        assert calls == []
        # the report itself also answers straight from the store
        code, served = http_get(f"{base}/v1/reports/{ticket['key']}")
        assert code == 200
        assert served["canonical_key"] == ticket["key"]

    def test_unknown_key_and_route_404(self, http_server):
        _, base = http_server
        code, payload = http_get(f"{base}/v1/reports/{'0' * 64}")
        assert code == 404 and payload["error"]["type"] == "NotFound"
        code, payload = http_get(f"{base}/v1/nope")
        assert code == 404

    def test_status_and_index(self, http_server):
        _, base = http_server
        code, payload = http_get(f"{base}/v1/status")
        assert code == 200
        assert payload["mode"] == "inline"
        assert set(payload) == {
            "service",
            "mode",
            "uptime_seconds",
            "draining",
            "circuit",
            "admission",
            "workers",
        }
        code, payload = http_get(f"{base}/")
        assert code == 200 and "POST /v1/solve" in payload["endpoints"]

    def test_oversize_declared_body_is_refused_unread(self, http_server):
        # The handler must not try to read (or allocate) what the client
        # declares; the connection closes, since the unread body would
        # otherwise be parsed as the next request.
        _, base = http_server
        host, port = base[len("http://") :].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/solve HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 1000000000000\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 "), reply[:200]
        assert json.loads(body)["error"]["type"] == "PayloadTooLarge"
        code, ticket, _ = http_post(
            f"{base}/v1/solve", json.dumps(small_spec(seed=35).to_jsonable()).encode()
        )
        assert code == 202, ticket

    def test_duplicate_inflight_submit_deduplicates(self, tmp_path):
        app = ServeApp(
            ServeConfig(store=tmp_path / "store", inline_workers=0, high_water=4)
        )
        body = json.dumps(small_spec().to_jsonable()).encode()
        code1, first = app.submit(body)
        code2, second = app.submit(body)
        assert (code1, code2) == (202, 202)
        assert second["deduplicated"] is True
        assert app.admission.depth == 1
        app.close()

    def test_accepted_sockets_set_tcp_nodelay(self, http_server, monkeypatch):
        # Without TCP_NODELAY a reply's body segment waits for the
        # client's delayed ACK of the header segment on keep-alive.
        _, base = http_server
        nodelay = []
        setup = ServeRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(ServeRequestHandler, "setup", recording_setup)
        code, _ = http_get(f"{base}/healthz")
        assert code == 200
        assert len(nodelay) == 1 and nodelay[0] != 0


class TestSubmitValidation:
    def test_routing_name_in_any_case_is_accepted(self, tmp_path):
        # solve() folds the routing name's case, so submission must too.
        app = ServeApp(ServeConfig(store=tmp_path / "store", inline_workers=0))
        try:
            upper = json.dumps(small_spec(routing="IP").to_jsonable()).encode()
            code, payload = app.submit(upper)
            assert code == 202, payload
            unknown = json.dumps(small_spec(routing="pigeon").to_jsonable()).encode()
            code, payload = app.submit(unknown)
            assert code == 400
            assert "pigeon" in payload["error"]["message"]
        finally:
            app.close()

    def test_non_finite_numbers_are_invalid_json(self, tmp_path):
        # json.loads accepts NaN and +-Infinity, which JSON does not; a
        # spec carrying one must not be admitted to fail later in a run.
        app = ServeApp(ServeConfig(store=tmp_path / "store", inline_workers=0))
        try:
            spec = json.dumps(online_spec().to_jsonable())
            for literal in ("NaN", "Infinity", "-Infinity"):
                body = spec.replace('"sigma": 10.0', f'"sigma": {literal}')
                assert literal in body
                code, payload = app.submit(body.encode())
                assert code == 400, payload
                assert payload["error"]["type"] == "InvalidJSON"
                assert literal in payload["error"]["message"]
        finally:
            app.close()


class TestReportLookup:
    """``ServeApp.report`` against a run finishing between its two reads."""

    def test_report_stored_between_store_and_run_reads_is_served(
        self, tmp_path, monkeypatch
    ):
        app = ServeApp(ServeConfig(store=tmp_path / "store", inline_workers=0))
        try:
            spec = small_spec(seed=31)
            code, ticket = app.submit(json.dumps(spec.to_jsonable()).encode())
            assert code == 202
            key = ticket["key"]
            contains = app._store_contains
            raced = []

            def racing_contains(k):
                found = contains(k)
                if not raced:
                    # The first lookup misses; before the run record is
                    # read, the solver thread stores the report and then
                    # marks the run done, in the inline executor's order.
                    raced.append(found)
                    solve(spec, store=app.store)
                    app._runs[k].state = "done"
                return found

            monkeypatch.setattr(app, "_store_contains", racing_contains)
            code, body = app.report(key)
            assert raced == [False]
            assert code == 200, body
            assert json.loads(body)["canonical_key"] == key
        finally:
            app.close()

    def test_report_is_the_stored_canonical_json(self, tmp_path):
        # A 200 hands out the store's bytes, neither rebuilt nor
        # re-encoded: from the memory front and from a fresh store's
        # disk read alike.
        spec = small_spec(seed=33)
        store = ReportStore(tmp_path / "store")
        expected = canonical_json(solve(spec, store=store).to_jsonable()).encode()
        for app_store in (store, ReportStore(tmp_path / "store")):
            app = ServeApp(ServeConfig(store=app_store, inline_workers=0))
            try:
                assert app.report(spec.canonical_key) == (200, expected)
            finally:
                app.close()

    def test_done_run_without_stored_report_is_lost(self, tmp_path):
        app = ServeApp(ServeConfig(store=tmp_path / "store", inline_workers=0))
        try:
            code, ticket = app.submit(
                json.dumps(small_spec(seed=32).to_jsonable()).encode()
            )
            assert code == 202
            app._runs[ticket["key"]].state = "done"
            code, payload = app.report(ticket["key"])
            assert code == 404
            assert payload["error"]["type"] == "ReportLost"
        finally:
            app.close()


# ----------------------------------------------------------------------
# Graceful degradation: circuit breaker, /healthz, draining shutdown
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_open_probe(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=5.0, clock=lambda: clock[0]
        )
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock[0] = 3.0
        assert breaker.retry_after() == pytest.approx(2.0)
        clock[0] = 5.0
        assert breaker.state == "half_open"
        assert breaker.allow()  # exactly one probe
        assert not breaker.allow()
        breaker.record_failure()  # probe failed: full cool-down again
        assert breaker.state == "open"
        clock[0] = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.allow()  # no probe rationing

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # streak broken, never 3 in a row

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        # A NaN cool-down shed forever while retry_after() read 0.
        for reset in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match="reset_seconds"):
                CircuitBreaker(reset_seconds=reset)


class TestServeDegradation:
    def test_store_failure_sheds_503_with_retry_after(self, tmp_path):
        app = ServeApp(ServeConfig(store=tmp_path / "store", inline_workers=0))
        try:
            body = json.dumps(small_spec().to_jsonable()).encode()
            # Three store failures in a row reach the breaker's threshold.
            with fault_scope("serve.store.lookup:raisex3"):
                for _ in range(3):
                    code, payload = app.submit(body)
                    assert code == 503
            assert payload["error"]["type"] == "StoreUnavailable"
            assert payload["retry_after_seconds"] > 0
            # The breaker is now open: requests shed fast, without
            # touching the store at all (no fault plan armed here).
            code, payload = app.submit(body)
            assert code == 503
            code, payload = app.report(small_spec().canonical_key)
            assert code == 503
            # Readiness mirrors the breaker; liveness does not.
            code, payload = app.health()
            assert code == 503
            assert payload["live"] is True and payload["ready"] is False
            assert payload["circuit"]["state"] == "open"
            assert app.status()[1]["circuit"]["state"] == "open"
            # Recovery closes the breaker and readiness returns.
            app.breaker.record_success()
            code, payload = app.health()
            assert code == 200 and payload["ready"] is True
            code, _ = app.submit(body)
            assert code == 202
        finally:
            app.close()

    def test_healthz_route_and_retry_after_header(self, http_server):
        app, base = http_server
        code, payload = http_get(f"{base}/healthz")
        assert code == 200
        assert payload["live"] is True and payload["ready"] is True
        # Force not-ready and check the HTTP surface: 503 + Retry-After.
        app._draining = True
        try:
            req = urllib.request.Request(f"{base}/healthz")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req)
            assert excinfo.value.code == 503
            assert int(excinfo.value.headers["Retry-After"]) >= 1
        finally:
            app._draining = False

    def test_drain_sheds_submits_and_flushes_markers(self, tmp_path):
        app = ServeApp(
            ServeConfig(store=tmp_path / "store", inline_workers=0, high_water=4)
        )
        code, ticket = app.submit(json.dumps(small_spec().to_jsonable()).encode())
        assert code == 202
        result = app.drain(timeout=0.2)
        assert result == {"draining": True, "interrupted_runs": 1}
        # New work is shed the moment draining starts.
        code, payload = app.submit(
            json.dumps(small_spec(seed=7).to_jsonable()).encode()
        )
        assert code == 503
        assert payload["error"]["type"] == "Draining"
        # The interrupted run is terminal and its SSE channel got a
        # terminal marker — no client is left hanging.
        code, payload = app.report(ticket["key"])
        assert code == 500
        assert payload["error"]["type"] == "SolveFailed"
        end = app.relay.events(ticket["key"])[-1]
        assert end["kind"] == "end" and end["status"] == "failed"
        assert "draining" in end["error"]

    def test_sse_tailer_leaves_an_open_breaker_alone(self, tmp_path, monkeypatch):
        app = ServeApp(ServeConfig(store=tmp_path / "store", inline_workers=0))
        try:
            calls = []
            contains = app.store.contains
            monkeypatch.setattr(
                app.store, "contains", lambda key: calls.append(key) or contains(key)
            )
            for _ in range(3):
                app.breaker.record_failure()
            assert app.breaker.state == "open"
            # The relay tailer's predicate sheds like a request would.
            assert app._run_finished(small_spec().canonical_key) is False
            assert calls == []
        finally:
            app.close()

    def test_timeouts_must_be_finite_and_non_negative(self, tmp_path):
        for timeout in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                ServeApp(ServeConfig(store=tmp_path / "s", sse_timeout=timeout))
        app = ServeApp(ServeConfig(store=tmp_path / "store", inline_workers=0))
        try:
            for timeout in (-1.0, math.nan, math.inf):
                with pytest.raises(ConfigurationError):
                    app.drain(timeout=timeout)
            assert app.health()[1]["draining"] is False  # refused up front
        finally:
            app.close()

    def test_drain_waits_for_inflight_work(self, tmp_path):
        app = ServeApp(ServeConfig(store=tmp_path / "store"))
        try:
            code, ticket = app.submit(
                json.dumps(small_spec(seed=401).to_jsonable()).encode()
            )
            assert code == 202
            result = app.drain(timeout=30.0)
            assert result["interrupted_runs"] == 0
            assert app.store.contains(ticket["key"])
        finally:
            app.close()


# ----------------------------------------------------------------------
# Cluster mode: dispatch through a WorkQueue, worker writes the relay
# ----------------------------------------------------------------------
class TestServeClusterMode:
    def test_queue_worker_roundtrip_with_relay(self, tmp_path):
        store_root = tmp_path / "store"
        queue_root = tmp_path / "queue"
        app = ServeApp(ServeConfig(store=store_root, queue=queue_root))
        try:
            spec = small_spec()
            code, ticket = app.submit(json.dumps(spec.to_jsonable()).encode())
            assert code == 202
            key = ticket["key"]
            deadline = time.monotonic() + 10
            while app.queue.counts()["pending"] == 0:
                assert time.monotonic() < deadline, "dispatcher never queued the run"
                time.sleep(0.01)
            # A batch-mode worker (as `python -m repro.cluster worker
            # --relay ...` would run) drains the queue and writes the
            # relay channel for the SSE side.
            stats = run_worker(
                queue_root,
                store_root,
                poll_seconds=0.01,
                exit_when_empty=True,
                relay=app.relay.root,
            )
            assert stats["completed"] == 1
            deadline = time.monotonic() + 10
            while app.report(key)[0] != 200:
                assert time.monotonic() < deadline, "collector never finalised"
                time.sleep(0.01)
            code, served = app.report(key)
            assert strip_volatile(json.loads(served)) == strip_volatile(
                solve(spec).to_jsonable()
            )
            events = app.relay.events(key)
            assert events and events[-1]["kind"] == "end"
            assert events[-1]["status"] == "done"
            frames = list(app.event_stream(key, timeout=5))
            assert frames[-1].startswith(b"event: end\n")
            assert app.queue.counts()["done"] == 1
        finally:
            app.close()

    def test_dispatched_runs_hold_admission_until_finished(self, tmp_path):
        # The dispatcher moves each admitted run to the work queue at
        # once; with no worker attached, the runs stay unfinished and
        # must still count against the high-water mark.
        app = ServeApp(
            ServeConfig(
                store=tmp_path / "store",
                queue=tmp_path / "queue",
                inline_workers=0,
                high_water=2,
            )
        )
        bodies = [
            json.dumps(small_spec(seed=700 + index).to_jsonable()).encode()
            for index in range(10)
        ]
        try:
            codes = [app.submit(body)[0] for body in bodies[:2]]
            deadline = time.monotonic() + 10
            while len(app._watched) < 2:
                assert time.monotonic() < deadline, "dispatcher never queued the runs"
                time.sleep(0.01)
            assert app.admission.depth == 0
            codes += [app.submit(body)[0] for body in bodies[2:]]
            assert codes == [202, 202] + [429] * 8
            assert app.queue.counts()["pending"] == 2
        finally:
            app.close()

    def test_dead_lettered_run_surfaces_as_500(self, tmp_path):
        app = ServeApp(ServeConfig(store=tmp_path / "store", queue=tmp_path / "queue"))
        try:
            # Passes registry name validation but fails inside the solver.
            bad = small_spec(solver_params={"approximation_ratio": 1.5})
            code, ticket = app.submit(json.dumps(bad.to_jsonable()).encode())
            assert code == 202
            deadline = time.monotonic() + 10
            while app.queue.counts()["pending"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            stats = run_worker(
                tmp_path / "queue",
                tmp_path / "store",
                poll_seconds=0.01,
                exit_when_empty=True,
                relay=app.relay.root,
            )
            assert stats["failed"] == 1
            deadline = time.monotonic() + 10
            while app.report(ticket["key"])[0] == 202:
                assert time.monotonic() < deadline, "collector never saw the failure"
                time.sleep(0.01)
            code, payload = app.report(ticket["key"])
            assert code == 500
            assert payload["error"]["type"] == "SolveFailed"
            # the worker-side relay channel carries the failed end marker
            end = app.relay.events(ticket["key"])[-1]
            assert end["kind"] == "end" and end["status"] == "failed"
        finally:
            app.close()

    def test_done_task_without_its_report_is_reopened_once(
        self, tmp_path, monkeypatch
    ):
        # The queue already holds the spec as done, but the store is
        # fresh: the collector puts the task back in front of the
        # workers once, and a worker's re-solve redeems the ticket.
        spec = small_spec(seed=41)
        queue = WorkQueue(tmp_path / "queue")
        queue.submit([spec])
        queue.complete(queue.claim("earlier-worker"))
        reopened = []
        reopen = queue.reopen
        monkeypatch.setattr(
            queue, "reopen", lambda key: reopened.append(key) or reopen(key)
        )
        app = ServeApp(ServeConfig(store=tmp_path / "store", queue=queue))
        try:
            code, ticket = app.submit(json.dumps(spec.to_jsonable()).encode())
            assert code == 202
            key = ticket["key"]
            deadline = time.monotonic() + 10
            while queue.counts()["pending"] == 0:
                assert time.monotonic() < deadline, "collector never reopened the task"
                time.sleep(0.01)
            stats = run_worker(queue, app.store, poll_seconds=0.01, exit_when_empty=True)
            assert stats["solved"] == 1
            deadline = time.monotonic() + 10
            while app._runs[key].state != "done":
                assert time.monotonic() < deadline, "collector never finalised"
                time.sleep(0.01)
            assert app.report(key)[0] == 200
            assert reopened == [key]
            assert queue.counts() == {"pending": 0, "claimed": 0, "done": 1, "failed": 0}
        finally:
            app.close()

    def test_collector_leaves_an_open_breaker_to_its_probe(self, tmp_path):
        # The collector reads the store through the request threads'
        # breaker: a report landing while the breaker is open must not
        # close it before the cool-down's half-open probe.
        clock = [0.0]
        app = ServeApp(ServeConfig(store=tmp_path / "store", queue=tmp_path / "queue"))
        app.breaker = CircuitBreaker(clock=lambda: clock[0])
        try:
            spec = small_spec(seed=42)
            code, ticket = app.submit(json.dumps(spec.to_jsonable()).encode())
            assert code == 202
            key = ticket["key"]
            deadline = time.monotonic() + 10
            while key not in app._watched:
                assert time.monotonic() < deadline, "dispatcher never queued the run"
                time.sleep(0.01)
            for _ in range(app.breaker.failure_threshold):
                app.breaker.record_failure()
            solve(spec, store=app.store)
            # The collector polls at least once a second.
            settle = time.monotonic() + 1.5
            while time.monotonic() < settle:
                assert app.breaker.state == "open"
                assert app._runs[key].state == "running"
                time.sleep(0.05)
            clock[0] = app.breaker.reset_seconds  # the cool-down is over
            deadline = time.monotonic() + 10
            while app._runs[key].state != "done":
                assert time.monotonic() < deadline, "collector never probed the store"
                time.sleep(0.01)
            assert app.breaker.state == "closed"
        finally:
            app.close()


# ----------------------------------------------------------------------
# Status and key lookups read no history
# ----------------------------------------------------------------------
class TestNoHistoryReads:
    @pytest.mark.parametrize("mode", ["inline", "cluster"])
    def test_status_and_key_lookups_list_no_history(self, tmp_path, monkeypatch, mode):
        # Status answers from memory, and submits, report polls and
        # event streams read only the asked key's own paths, so their
        # cost does not grow with the entries the store holds or the
        # tasks done/ and failed/ hold.
        store = ReportStore(tmp_path / "store", durable=False)
        warm = small_spec(seed=601)
        solve(warm, store=store)
        store.clear_memory()
        for index in range(1000):
            key = hashlib.sha256(str(index).encode()).hexdigest()
            path = store.root / "objects" / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"{}")
        history = [store.root / "objects"]
        queue = None
        if mode == "cluster":
            queue = WorkQueue(tmp_path / "queue", durable=False)
            queue.submit([small_spec(seed=602), small_spec(seed=603)])
            queue.complete(queue.claim("earlier-worker"))
            queue.fail(queue.claim("earlier-worker"), "ValueError: boom")
            history += [queue.root / "done", queue.root / "failed"]
        app = ServeApp(ServeConfig(store=store, queue=queue, inline_workers=0))
        listed = []

        def refusing(listing):
            def guarded(path=".", *args, **kwargs):
                target = Path(path)
                if any(target == root or root in target.parents for root in history):
                    listed.append(target)  # seen even from a background thread
                    raise AssertionError(f"listed {path}")
                return listing(path, *args, **kwargs)

            return guarded

        monkeypatch.setattr(os, "listdir", refusing(os.listdir))
        monkeypatch.setattr(os, "scandir", refusing(os.scandir))
        monkeypatch.setattr(Path, "iterdir", refusing(Path.iterdir))
        monkeypatch.setattr(Path, "glob", refusing(Path.glob))
        cold = small_spec(seed=604)
        try:
            assert app.status()[0] == 200
            code, ticket = app.submit(json.dumps(warm.to_jsonable()).encode())
            assert (code, ticket["cached"]) == (200, True)
            code, _ = app.submit(json.dumps(cold.to_jsonable()).encode())
            assert code == 202
            deadline = time.monotonic() + 10
            while mode == "cluster" and cold.canonical_key not in app._watched:
                assert time.monotonic() < deadline, "dispatcher never queued the run"
                time.sleep(0.01)
            assert app.report(warm.canonical_key)[0] == 200
            assert app.report(cold.canonical_key)[0] == 202
            assert list(app.event_stream(warm.canonical_key, timeout=0))
            assert list(app.event_stream(cold.canonical_key, timeout=0))
            assert app.status()[0] == 200
        finally:
            app.close()
            monkeypatch.undo()
        assert listed == []
        assert store.stats()["entries"] == 1001


# ----------------------------------------------------------------------
# Satellites: event tap, dropped-event accounting, timeout diagnostics
# ----------------------------------------------------------------------
class TestEventTap:
    def test_tap_sees_solve_events_and_detaches(self):
        seen = []
        with event_tap(seen.append):
            solve(small_spec(seed=101))
        assert seen, "tap saw no engine events"
        count = len(seen)
        solve(small_spec(seed=102))
        assert len(seen) == count, "tap leaked past its context"

    def test_listeners_outlive_the_log_bound(self):
        instr = Instrumentation(max_events=2)
        seen = []
        instr.add_listener(seen.append)
        for step in range(5):
            instr.emit("oracle", step, queries=1.0)
        assert len(seen) == 5
        assert len(instr.events) == 2
        snapshot = instr.snapshot()
        assert snapshot["dropped_events"] == 3

    def test_solve_on_event_matches_tap(self, tmp_path):
        kinds = set()
        solve(online_spec(), store=tmp_path / "s", on_event=lambda e: kinds.add(e.kind))
        assert "congestion" in kinds


class TestAsReportsCompletedTimeout:
    def test_timeout_names_keys_and_queue_state(self, tmp_path):
        specs = [small_spec(seed=s) for s in (201, 202)]

        async def gather():
            async for _ in as_reports_completed(
                specs,
                tmp_path / "q",
                tmp_path / "s",
                poll_seconds=0.01,
                timeout=0.15,
            ):
                pass

        with pytest.raises(TimeoutError) as excinfo:
            asyncio.run(gather())
        message = str(excinfo.value)
        for spec in specs:
            assert spec.canonical_key[:12] in message
        assert "2 pending" in message
        assert "workers attached" in message

    def test_worker_backoff_still_drains(self, tmp_path):
        # Backoff in the worker loop must not change drain semantics.
        queue = WorkQueue(tmp_path / "q")
        queue.submit([small_spec(seed=301)])
        stats = run_worker(
            queue, tmp_path / "s", poll_seconds=0.01, exit_when_empty=True
        )
        assert stats["completed"] == 1
        store = ReportStore(tmp_path / "s")
        assert store.stats()["entries"] == 1
