"""HTTP shell of the signature service.

:class:`SignatureService` composes the supervisor (control plane) with the
frontend (data plane) and a background *pump* thread that closes windows
whenever the ingest queue holds one; :class:`ServiceServer` mounts the
socket-free :meth:`~repro.service.frontend.ServiceFrontend.respond` on the
shared :class:`repro.obs.server.RouteServer`, which only moves bytes.

Ingest is asynchronous by design: ``POST /ingest`` acknowledges admission
to the bounded queue (202), and the pump applies whole windows to the
shard fleet from a single thread — shard engines never see concurrent
mutation, while any number of handler threads read consistent snapshots.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.graph.stream import EdgeRecord
from repro.obs.server import RouteServer
from repro.service.config import ServiceConfig
from repro.service.frontend import Response, ServiceFrontend
from repro.service.supervisor import ShardSupervisor


class SignatureService:
    """The whole service minus sockets: supervisor + frontend + pump."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        checkpoint_dir: Optional[str | Path] = None,
        history_dir: Optional[str | Path] = None,
        registry: Optional[obs.MetricsRegistry] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        self.config = config or ServiceConfig()
        self.supervisor = ShardSupervisor(
            self.config,
            checkpoint_dir=checkpoint_dir,
            history_dir=history_dir,
            clock=clock,
            sleep=sleep,
        )
        self.frontend = ServiceFrontend(
            self.supervisor, self.config, registry=registry, clock=clock
        )
        self._pump_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._pump_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Synchronous conveniences (tests, examples, CLI replay)
    # ------------------------------------------------------------------
    def ingest(self, records: Sequence[EdgeRecord]) -> bool:
        """Offer records directly to the queue; ``False`` means backpressure."""
        return self.frontend.queue.offer(records)

    def pump(self, force: bool = False) -> int:
        """Close all currently fillable windows (serialized with the thread)."""
        with self._pump_lock:
            return self.frontend.pump(force=force)

    def respond(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        headers: Optional[dict] = None,
    ) -> Response:
        return self.frontend.respond(method, path, body, headers=headers)

    # ------------------------------------------------------------------
    # Background pump
    # ------------------------------------------------------------------
    def start_pump(self, interval_s: float = 0.05) -> None:
        """Run the window pump on a daemon thread until :meth:`stop_pump`."""
        if self._pump_thread is not None:
            raise RuntimeError("pump already running")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                if self.pump() == 0:
                    self._stop.wait(interval_s)

        self._pump_thread = threading.Thread(
            target=loop, name="repro-service-pump", daemon=True
        )
        self._pump_thread.start()

    def stop_pump(self, drain: bool = True) -> None:
        """Stop the pump thread; with ``drain`` close a final short window."""
        self._stop.set()
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=5.0)
            self._pump_thread = None
        if drain:
            self.pump(force=True)

    def close(self) -> None:
        """Shut the service down: stop the pump (draining a final short
        window) and release the supervisor's shared-memory pool, if any."""
        self.stop_pump(drain=True)
        self.supervisor.close()


class ServiceServer(RouteServer):
    """Serve a :class:`SignatureService` over HTTP (stdlib only).

    The route table is :meth:`ServiceFrontend.respond
    <repro.service.frontend.ServiceFrontend.respond>`; the socket lifecycle
    is :class:`repro.obs.server.RouteServer`'s.  Starting also starts the
    ingest pump, and stopping drains the queue.
    """

    event_prefix = "service.server"

    def __init__(
        self,
        service: SignatureService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        pump_interval_s: float = 0.05,
    ) -> None:
        super().__init__(host=host, port=port)
        self.service = service
        self.pump_interval_s = pump_interval_s

    def respond(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        headers: Optional[dict] = None,
    ) -> Response:
        return self.service.frontend.respond(method, path, body, headers=headers)

    def _on_start(self) -> None:
        self.service.start_pump(self.pump_interval_s)

    def _on_stop(self) -> None:
        self.service.close()
