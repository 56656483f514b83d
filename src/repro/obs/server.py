"""The one HTTP server: a stdlib daemon serving a route table.

:class:`RouteServer` owns everything socket-shaped — bind (``port=0``
picks an ephemeral port), the serve thread, daemon handler threads,
``Content-Length`` framing, GET/POST dispatch, a 500 answer when a route
raises, and request logs routed to the event log that was active at
:meth:`~RouteServer.start` (re-installed in every handler thread, so
request-path events land in it too).  Subclasses supply only
:meth:`~RouteServer.respond`, a socket-free function from
``(method, path, body, headers)`` to ``(status, headers, body_text)``.

:class:`ObsServer` is the metrics route table over a collecting registry:

* ``GET /metrics`` — Prometheus text exposition of a fresh registry
  snapshot (``text/plain; version=0.0.4``), scrape-safe mid-run: the
  snapshot is taken under the registry lock, so digest buckets, sums and
  counts are always mutually consistent;
* ``GET /healthz`` — JSON liveness (status, uptime, request count);
* ``GET /snapshot.json`` — the full ``repro.obs/v1`` JSON payload
  (validatable with :func:`repro.obs.export.validate_payload`);
* ``GET /series.json`` — the attached :class:`TimeSeriesStore` trajectories
  (empty object when no store is attached).

Every routed request increments ``obs.server.requests{route=...}`` on the
served registry — scrapes are themselves observable — and is logged at
debug level to the captured event log.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import urlparse

from repro.obs import logs
from repro.obs.export import build_payload, to_prometheus
from repro.obs.timeseries import TimeSeriesStore

#: Content type Prometheus scrapers expect for text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

ROUTES = ("/metrics", "/healthz", "/snapshot.json", "/series.json")

#: ``(status, headers, body_text)`` — what a route table returns.
Reply = Tuple[int, Dict[str, str], str]


class RouteServer:
    """Serve :meth:`respond` over HTTP on a daemon thread (stdlib only).

    ``port=0`` binds an ephemeral port; read the bound one from ``.port``
    after :meth:`start`.  The listener thread is a daemon, so a forgotten
    server never blocks interpreter exit, but call :meth:`stop` (or use the
    context manager) for a clean shutdown.  Lifecycle events are emitted
    as ``<event_prefix>.started`` / ``.stopped`` / ``.request`` / ``.error``.
    """

    event_prefix = "http.server"

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._log = logs.NULL_EVENT_LOG
        self._started_at = 0.0
        self._requests = 0
        self._requests_lock = threading.Lock()

    def respond(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        headers: Optional[dict] = None,
    ) -> Reply:
        """The route table: ``(status, headers, body_text)`` for one request."""
        raise NotImplementedError

    def _on_start(self) -> None:
        """Hook: runs once the listener is serving, before ``.started``."""

    def _on_stop(self) -> None:
        """Hook: runs while the listener still serves, before shutdown."""

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self):
        if self._httpd is not None:
            raise RuntimeError("server already started")
        self._httpd = ThreadingHTTPServer((self.host, self.port), _make_handler(self))
        self._httpd.daemon_threads = True
        # Handler threads start with a fresh contextvar context, so capture
        # the event log active *now* for request-time logging.
        self._log = logs.get_event_log()
        self.port = self._httpd.server_address[1]
        self._started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"repro-{self.event_prefix.replace('.', '-')}:{self.port}",
            daemon=True,
        )
        self._thread.start()
        self._on_start()
        logs.emit(f"{self.event_prefix}.started", level="info", url=self.url)
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._on_stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        logs.emit(f"{self.event_prefix}.stopped", level="info", url=self.url,
                  requests=self._requests)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _count_request(self) -> None:
        with self._requests_lock:
            self._requests += 1


def _make_handler(server: RouteServer):
    class _Handler(BaseHTTPRequestHandler):
        # Clients poll fast; per-request stderr noise helps nobody — route
        # it to the captured event log instead.
        def log_message(self, format: str, *args) -> None:
            server._log.emit(
                f"{server.event_prefix}.request", level="debug",
                client=self.address_string(), detail=format % args,
            )

        def _serve(self, method: str, body: Optional[str]) -> None:
            server._count_request()
            try:
                with logs.use_event_log(server._log):
                    status, headers, payload = server.respond(
                        method, self.path, body, headers=dict(self.headers)
                    )
            except Exception as error:  # noqa: BLE001 - must answer the socket
                status = 500
                headers = {"Content-Type": "application/json"}
                payload = json.dumps({"error": str(error)}) + "\n"
                server._log.emit(
                    f"{server.event_prefix}.error", level="error", error=str(error)
                )
            encoded = payload.encode("utf-8")
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def do_GET(self) -> None:
            self._serve("GET", None)

        def do_POST(self) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length).decode("utf-8") if length else None
            self._serve("POST", body)

    return _Handler


def _json_reply(status: int, document: Dict) -> Reply:
    return (
        status,
        {"Content-Type": "application/json"},
        json.dumps(document, sort_keys=True) + "\n",
    )


class ObsServer(RouteServer):
    """Serve a registry (and optional series store) over HTTP."""

    event_prefix = "obs.server"

    def __init__(
        self,
        registry,
        *,
        store: Optional[TimeSeriesStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        meta: Optional[Dict] = None,
    ) -> None:
        super().__init__(host=host, port=port)
        self.registry = registry
        self.store = store
        self.meta = dict(meta or {})

    def respond(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        headers: Optional[dict] = None,
    ) -> Reply:
        route = urlparse(path).path
        if route not in ROUTES:
            return _json_reply(404, {"error": "not found", "routes": list(ROUTES)})
        if method != "GET":
            return _json_reply(405, {"error": "method not allowed", "allow": ["GET"]})
        self.registry.counter("obs.server.requests", route=route).inc()
        if route == "/metrics":
            return (
                200,
                {"Content-Type": PROMETHEUS_CONTENT_TYPE},
                to_prometheus(self.registry.snapshot()),
            )
        if route == "/healthz":
            return _json_reply(200, {
                "status": "ok",
                "uptime_s": round(time.time() - self._started_at, 3),
                "requests": self._requests,
                "series": 0 if self.store is None else len(self.store),
            })
        if route == "/snapshot.json":
            return _json_reply(200, build_payload(self.registry.snapshot(), meta=self.meta))
        series = {} if self.store is None else self.store.to_dict()
        return _json_reply(200, {"series": series})
