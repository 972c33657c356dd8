"""``python -m repro.serve`` — run the solve-as-a-service HTTP front end.

Inline mode (default): the server process solves submissions itself on
``--inline-workers`` daemon threads::

    python -m repro.serve --store /tmp/store --port 8080

Cluster mode: pass ``--queue DIR`` and the server only admits and
dispatches — external ``python -m repro.cluster worker --relay ...``
processes (sharing the queue + store filesystem) do the solving.
``--spawn-workers N`` launches N such workers as child processes for a
self-contained single-host cluster::

    python -m repro.serve --store /tmp/store --queue /tmp/queue \\
        --spawn-workers 4

``--port 0`` binds an ephemeral port; the chosen address is always
printed as ``listening on http://HOST:PORT`` (stdout, flushed) so
wrappers and tests can parse it.  A bad setting (a NaN or negative
``--sse-timeout`` or ``--drain-timeout``, say) exits with one line on
stderr before the server starts.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
from typing import List, Optional

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.routes import make_server
from repro.store import STORE_ENV_VAR, resolve_store
from repro.util.errors import ConfigurationError, check_seconds


def build_app(args: argparse.Namespace) -> ServeApp:
    store = args.store or resolve_store(None)
    if store is None:
        raise SystemExit(
            f"no store configured: pass --store DIR or export {STORE_ENV_VAR}"
        )
    config = ServeConfig(
        store=store,
        queue=args.queue,
        relay=args.relay,
        inline_workers=args.inline_workers,
        high_water=args.high_water,
        per_client_limit=args.per_client,
        sse_timeout=args.sse_timeout,
    )
    return ServeApp(config)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="HTTP solve service: submit specs, poll reports, "
        "stream engine telemetry over SSE",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--store",
        default=None,
        help=f"report-store directory (default: ${STORE_ENV_VAR} if set)",
    )
    parser.add_argument(
        "--queue",
        default=None,
        help="work-queue directory: switches to cluster mode (external "
        "`repro.cluster worker` processes solve; this process only "
        "admits, dispatches and serves)",
    )
    parser.add_argument(
        "--relay",
        default=None,
        help="event-relay directory for per-run telemetry channels "
        "(default: <store>/runs)",
    )
    parser.add_argument(
        "--inline-workers",
        type=int,
        default=1,
        help="inline solver threads (inline mode only; 0 = accept but "
        "never execute, for frontend-only processes)",
    )
    parser.add_argument(
        "--high-water",
        type=int,
        default=64,
        help="unfinished runs (queued or running) at which new submissions "
        "are shed (429)",
    )
    parser.add_argument(
        "--per-client",
        type=int,
        default=None,
        help="cap on any single client's unfinished (queued or running) runs",
    )
    parser.add_argument(
        "--sse-timeout",
        type=float,
        default=300.0,
        help="default max seconds an SSE stream waits for its end marker",
    )
    parser.add_argument(
        "--spawn-workers",
        type=int,
        default=0,
        help="(cluster mode) launch N `repro.cluster worker` child "
        "processes against the queue",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="max seconds a SIGTERM-triggered graceful drain waits for "
        "in-flight runs before marking them failed and exiting",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log each HTTP request to stderr"
    )
    args = parser.parse_args(argv)

    if args.spawn_workers and not args.queue:
        raise SystemExit("--spawn-workers requires --queue (cluster mode)")
    try:
        return _serve(args)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None


def _serve(args: argparse.Namespace) -> int:
    # Checked now, not when a SIGTERM asks for the drain.
    check_seconds("--drain-timeout", args.drain_timeout, zero_ok=True)
    app = build_app(args)
    server = make_server(app, host=args.host, port=args.port, verbose=args.verbose)

    workers = contextlib.nullcontext()
    if args.spawn_workers:
        from repro.cluster.worker import spawn_local_workers

        workers = spawn_local_workers(
            args.spawn_workers,
            args.queue,
            app.store.root,
            poll_seconds=0.1,
            exit_when_empty=False,
            relay_root=app.relay.root,
        )
    with workers:
        host, port = server.server_address[0], server.server_address[1]
        print(f"listening on http://{host}:{port}", flush=True)
        print(
            f"mode={app.mode} store={app.store.root} relay={app.relay.root}"
            + (f" queue={args.queue} workers={args.spawn_workers}" if args.queue else ""),
            file=sys.stderr,
            flush=True,
        )
        # Graceful SIGTERM: stop admitting (503 Draining), wait for in-flight
        # runs up to --drain-timeout, flush relay end markers, then stop the
        # accept loop.  Runs on a helper thread because serve_forever owns
        # the main thread and app.drain blocks.
        drained = threading.Event()

        def _drain_and_stop(signum: int, frame: object) -> None:
            if drained.is_set():
                return
            drained.set()

            def _worker() -> None:
                print("SIGTERM: draining...", file=sys.stderr, flush=True)
                try:
                    app.drain(timeout=args.drain_timeout)
                finally:
                    server.shutdown()

            threading.Thread(target=_worker, name="serve-drain", daemon=True).start()

        try:
            signal.signal(signal.SIGTERM, _drain_and_stop)
        except ValueError:  # pragma: no cover - not on the main thread
            pass

        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            app.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
