"""The service data plane: bounded ingest queue + socket-free request logic.

:class:`ServiceFrontend` implements every endpoint as a pure function from
``(method, path, query, body)`` to ``(status, headers, body)`` — the HTTP
layer (:mod:`repro.service.http`) is a thin socket adapter over it, and
tests drive the full contract without ever binding a port (the same split
``obs.server`` uses for scrape-consistency testing).

Failure envelope implemented here:

* **Backpressure** — :class:`BoundedIngestQueue` holds accepted-but-not-
  applied records; an ingest that does not fit is rejected whole with 429
  and a ``Retry-After`` header.  Acceptance (202) is an acknowledgement:
  once offered, records are never dropped — they sit in the queue until a
  window closes over them.
* **Load shedding** — when queue occupancy crosses the shed threshold,
  query endpoints answer 503 (with ``Retry-After``) while ingest keeps
  being accepted: shedding reads protects the writes that back them.
* **Circuit breaking** — exact-tier query calls are guarded by the shard's
  breaker; a refused or failed call falls back to the sketch tier and the
  response carries ``"approximate": true``.
* **Deadlines** — a request that overruns ``request_deadline_s`` answers
  504 instead of pretending latency is fine.

Observability implemented here (the PR 9 layer):

* **Request tracing** — every request is served under a fresh
  :class:`repro.obs.RequestContext` (or one continuing the caller's
  ``X-Trace-Id``); frontend and shard code attach spans via
  ``obs.trace_span``, the finished tree is stored in a bounded
  :class:`repro.obs.TraceStore`, and ``GET /trace/<id>`` returns it.
  Responses carry ``X-Trace-Id`` / ``X-Request-Id`` headers.
* **Latency digests** — per-endpoint ``service.latency_s`` digests with
  guaranteed relative error, merged across shard registries into
  ``/metrics`` exactly like counters.
* **SLOs** — declarative objectives from the config evaluated as
  multi-window error-budget burn rates at ``GET /slo``, wired into an
  :class:`repro.obs.AlertManager`.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, unquote

from repro import obs
from repro.core.signature import Signature
from repro.exceptions import PipelineError
from repro.graph.stream import EdgeRecord
from repro.service.config import (
    HEALTH_DEGRADED,
    HEALTH_DOWN,
    HEALTH_HEALTHY,
    ServiceConfig,
)
from repro.service.supervisor import ShardState, ShardSupervisor

#: ``(status, headers, body-text)`` — what the HTTP adapter writes out.
Response = Tuple[int, Dict[str, str], str]

JSON_TYPE = "application/json"


class BoundedIngestQueue:
    """Thread-safe bounded record buffer with all-or-nothing admission."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise PipelineError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._records: List[EdgeRecord] = []
        self._lock = threading.Lock()
        self.accepted = 0
        self.rejected = 0

    def offer(self, records: Sequence[EdgeRecord]) -> bool:
        """Admit the whole batch, or none of it (the 429 contract)."""
        batch = list(records)
        with self._lock:
            if len(self._records) + len(batch) > self.capacity:
                self.rejected += len(batch)
                return False
            self._records.extend(batch)
            self.accepted += len(batch)
            return True

    def take(self, count: int, force: bool = False) -> Optional[List[EdgeRecord]]:
        """Pop the oldest ``count`` records; with ``force`` pop a short
        remainder too.  ``None`` when nothing (eligible) is queued."""
        with self._lock:
            if not self._records:
                return None
            if len(self._records) < count and not force:
                return None
            taken, self._records = self._records[:count], self._records[count:]
            return taken

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def occupancy(self) -> float:
        return len(self) / self.capacity


def service_objectives(config: ServiceConfig) -> List[obs.ServiceObjective]:
    """The SLOs a config declares (possibly empty if all are disabled)."""
    objectives: List[obs.ServiceObjective] = []
    if config.slo_availability is not None:
        objectives.append(
            obs.ServiceObjective(
                name="availability",
                endpoint="*",
                kind=obs.KIND_AVAILABILITY,
                target=config.slo_availability,
            )
        )
    if config.slo_similar_p99_s is not None:
        objectives.append(
            obs.ServiceObjective(
                name="similar-p99",
                endpoint="/similar",
                kind=obs.KIND_LATENCY,
                quantile=0.99,
                threshold_s=config.slo_similar_p99_s,
            )
        )
    return objectives


class ServiceFrontend:
    """All endpoint logic, independent of sockets and threads."""

    ROUTES = (
        "/signature/", "/similar/", "/anomaly/", "/history/", "/trajectory/",
        "/status", "/ingest", "/metrics", "/trace/", "/slo",
    )

    def __init__(
        self,
        supervisor: ShardSupervisor,
        config: ServiceConfig | None = None,
        *,
        registry: Optional[obs.MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.supervisor = supervisor
        self.config = config or supervisor.config
        self.queue = BoundedIngestQueue(self.config.queue_capacity)
        self.registry = registry if registry is not None else obs.MetricsRegistry()
        self._clock = clock
        self._started_at = clock()
        self.traces = obs.TraceStore(self.config.trace_store_size)
        objectives = service_objectives(self.config)
        self.alerts = obs.AlertManager(
            [obs.burn_rate_rule(objective) for objective in objectives]
        )
        self.slo = obs.SLOTracker(
            objectives,
            windows_s=self.config.slo_windows_s,
            clock=clock,
            alert_manager=self.alerts,
        )
        self._latency_digests: Dict[str, obs.Digest] = {}

    def _latency_digest(self, endpoint: str) -> obs.Digest:
        instrument = self._latency_digests.get(endpoint)
        if instrument is None:
            instrument = self._latency_digests[endpoint] = self.registry.digest(
                "service.latency_s",
                relative_accuracy=self.config.digest_relative_accuracy,
                endpoint=endpoint,
            )
        return instrument

    # ------------------------------------------------------------------
    # Window pump
    # ------------------------------------------------------------------
    def pump(self, force: bool = False) -> int:
        """Close as many windows as the queue can fill; returns windows closed.

        With ``force`` a final short window is closed from the remainder —
        the drain path for shutdown and synchronous tests.
        """
        closed = 0
        while True:
            bucket = self.queue.take(self.config.window_records, force=force)
            if bucket is None:
                break
            self.supervisor.ingest(bucket)
            closed += 1
            self.registry.counter("service.windows").inc()
        return closed

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def respond(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Handle one request; never raises (the data plane must answer).

        ``headers`` (optional, case-insensitive) may carry ``X-Trace-Id``
        to continue a caller's trace; the response headers always carry
        ``X-Trace-Id`` / ``X-Request-Id`` so a client can fetch its own
        span tree from ``GET /trace/<id>``.
        """
        started = self._clock()
        raw_path, _, query_string = path.partition("?")
        route = self._route_of(raw_path)
        endpoint = route or "unknown"
        self.registry.counter("service.requests", route=endpoint).inc()
        context = obs.RequestContext(
            trace_id=_incoming_trace_id(headers),
            deadline_s=self.config.request_deadline_s,
            clock=self._clock,
            method=method,
            path=raw_path,
            endpoint=endpoint,
        )
        with obs.use_trace(context):
            with obs.trace_span("service.request", endpoint=endpoint):
                try:
                    response = self._dispatch(
                        method, raw_path, query_string, body, started
                    )
                except Exception as error:  # noqa: BLE001 - must answer the socket
                    obs.emit(
                        "service.error", level="error",
                        path=raw_path, error=str(error),
                    )
                    self.registry.counter("service.errors").inc()
                    response = self._json(500, {"error": str(error)})
            if (
                self.config.request_deadline_s is not None
                and self._clock() - started > self.config.request_deadline_s
                and response[0] < 500
            ):
                self.registry.counter("service.deadline_exceeded").inc()
                obs.emit("service.deadline_exceeded", level="warning", path=raw_path)
                response = self._json(
                    504,
                    {
                        "error": "request deadline exceeded",
                        "deadline_s": self.config.request_deadline_s,
                    },
                )
            # Emitted inside the trace scope so the log line carries
            # trace_id/request_id — the hook that makes `read_events(...,
            # trace_id=...)` reconstruct a single request's story.
            obs.emit(
                "service.request.done",
                level="debug",
                method=method,
                path=raw_path,
                status=response[0],
            )
        context.finish()
        self.traces.put(context)
        elapsed = self._clock() - started
        status = response[0]
        self._latency_digest(endpoint).observe(elapsed)
        self.slo.record(endpoint, elapsed, ok=status < 500)
        response_headers = dict(response[1])
        response_headers["X-Trace-Id"] = context.trace_id
        response_headers["X-Request-Id"] = context.request_id
        return status, response_headers, response[2]

    @staticmethod
    def _route_of(path: str) -> Optional[str]:
        for route in ServiceFrontend.ROUTES:
            if path == route or (route.endswith("/") and path.startswith(route)):
                return route.rstrip("/") or route
        return None

    def _dispatch(
        self,
        method: str,
        path: str,
        query_string: str,
        body: Optional[str],
        started: float,
    ) -> Response:
        if path == "/status" and method == "GET":
            return self._handle_status()
        if path == "/metrics" and method == "GET":
            return self._handle_metrics()
        if path == "/slo" and method == "GET":
            return self._handle_slo()
        if path.startswith("/trace/") and method == "GET":
            return self._handle_trace(unquote(path[len("/trace/"):]))
        if path == "/ingest" and method == "POST":
            return self._handle_ingest(body)
        if method != "GET":
            return self._json(405, {"error": f"method {method} not allowed"})
        for prefix, handler in (
            ("/signature/", self._handle_signature),
            ("/similar/", self._handle_similar),
            ("/anomaly/", self._handle_anomaly),
            ("/history/", self._handle_history),
            ("/trajectory/", self._handle_trajectory),
        ):
            if path.startswith(prefix):
                shed = self._maybe_shed()
                if shed is not None:
                    return shed
                node = unquote(path[len(prefix):])
                if not node:
                    return self._json(404, {"error": "missing node id"})
                return handler(node, parse_qs(query_string))
        return self._json(
            404, {"error": "not found", "routes": list(self.ROUTES)}
        )

    # ------------------------------------------------------------------
    # Backpressure
    # ------------------------------------------------------------------
    def _maybe_shed(self) -> Optional[Response]:
        """Shed query traffic (503) while the ingest queue is under pressure."""
        if self.queue.occupancy() < self.config.shed_fraction:
            return None
        self.registry.counter("service.shed_queries").inc()
        obs.emit(
            "service.query_shed",
            level="warning",
            occupancy=round(self.queue.occupancy(), 3),
        )
        return self._json(
            503,
            {
                "error": "shedding query load (ingest queue under pressure)",
                "occupancy": round(self.queue.occupancy(), 3),
            },
            headers={"Retry-After": self._retry_after()},
        )

    def _retry_after(self) -> str:
        import math

        return str(max(1, math.ceil(self.config.retry_after_s)))

    def _handle_ingest(self, body: Optional[str]) -> Response:
        if not body:
            return self._json(400, {"error": "empty ingest body"})
        try:
            records = parse_ingest_body(body)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            return self._json(400, {"error": f"malformed ingest body: {error}"})
        if not records:
            return self._json(400, {"error": "no records in ingest body"})
        if not self.queue.offer(records):
            self.registry.counter("service.ingest_rejected").inc(len(records))
            obs.emit(
                "service.backpressure",
                level="warning",
                rejected=len(records),
                queued=len(self.queue),
                capacity=self.queue.capacity,
            )
            return self._json(
                429,
                {
                    "error": "ingest queue full",
                    "queued": len(self.queue),
                    "capacity": self.queue.capacity,
                },
                headers={"Retry-After": self._retry_after()},
            )
        self.registry.counter("service.ingest_accepted").inc(len(records))
        return self._json(
            202,
            {
                "accepted": len(records),
                "queued": len(self.queue),
                "window_records": self.config.window_records,
            },
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _shard_signature(
        self, state: ShardState, node: str
    ) -> Tuple[Optional[Signature], bool]:
        """The node's signature from its home shard: ``(signature, approximate)``.

        Exact tier first — guarded by the shard's breaker — then the sketch
        tier.  Raises nothing: a DOWN shard is reported by the caller.
        """
        if state.health == HEALTH_HEALTHY and state.engine is not None:
            if state.breaker.allow():
                with obs.trace_span(
                    "shard.query", shard=str(state.shard_id), tier="exact"
                ) as span_node:
                    started = self._clock()
                    try:
                        if state.injector is not None:
                            state.injector.on_query(state.shard_id, node)
                        signature = state.engine.signature(node)
                    except Exception as error:  # noqa: BLE001 - breaker accounting
                        state.breaker.record_failure(self._clock() - started)
                        state.registry.counter("shard.query_failures").inc()
                        if span_node is not None:
                            span_node.error = str(error)
                        obs.emit(
                            "service.query_failed",
                            level="warning",
                            shard=state.shard_id,
                            node=node,
                            error=str(error),
                        )
                    else:
                        state.breaker.record_success(self._clock() - started)
                        return signature, False
        self.registry.counter("service.approximate_answers").inc()
        with obs.trace_span(
            "sketch.fallback", shard=str(state.shard_id), tier="sketch"
        ):
            return state.sketch.signature(node), True

    def _handle_signature(self, node: str, _params: Dict) -> Response:
        state = self.supervisor.state_for(node)
        if state.health == HEALTH_DOWN:
            return self._down_response(state)
        signature, approximate = self._shard_signature(state, node)
        if signature is None:
            return self._json(
                404,
                {
                    "error": f"no signature for node {node!r}",
                    "node": node,
                    "shard": state.shard_id,
                    "approximate": approximate,
                },
            )
        return self._json(
            200,
            {
                "node": node,
                "shard": state.shard_id,
                "window": self.supervisor.window,
                "approximate": approximate,
                "scheme": self.config.scheme,
                "signature": {
                    str(dst): weight for dst, weight in signature.entries
                },
            },
        )

    def _handle_similar(self, node: str, params: Dict) -> Response:
        try:
            k = int(params.get("k", ["5"])[0])
        except ValueError:
            return self._json(400, {"error": "k must be an integer"})
        if k < 1:
            return self._json(400, {"error": f"k must be >= 1, got {k}"})
        home = self.supervisor.state_for(node)
        if home.health == HEALTH_DOWN:
            return self._down_response(home)
        signature, approximate = self._shard_signature(home, node)
        if signature is None:
            return self._json(
                404, {"error": f"no signature for node {node!r}", "node": node}
            )
        # Scatter-gather: every shard with a live exact tier contributes its
        # index; shards that cannot (DOWN, demoted, breaker open) are skipped
        # and the response is marked partial rather than failing the query.
        scored: List[Tuple[str, float]] = []
        skipped: List[int] = []
        trace = obs.current_trace()
        for state in self.supervisor.shards:
            # Deadline-aware gather: once the edge deadline has passed,
            # remaining shards are skipped — the 504 is coming either way,
            # so don't burn their query capacity on a dead request.
            if trace is not None and trace.expired():
                skipped.append(state.shard_id)
                continue
            if (
                self.supervisor.shard_health(state) != HEALTH_HEALTHY
                or state.engine is None
            ):
                skipped.append(state.shard_id)
                continue
            with obs.trace_span("similar.gather", shard=str(state.shard_id)):
                scored.extend(
                    (str(owner), score)
                    for owner, score in state.engine.query_index().query(
                        signature, k=k, exclude_self=True
                    )
                )
        scored.sort(key=lambda item: (item[1], item[0]))
        return self._json(
            200,
            {
                "node": node,
                "window": self.supervisor.window,
                "k": k,
                "approximate": approximate,
                "partial": bool(skipped),
                "shards_skipped": skipped,
                "distance": self.config.distance,
                "similar": [
                    {"node": owner, "distance": score} for owner, score in scored[:k]
                ],
            },
        )

    def _handle_anomaly(self, node: str, _params: Dict) -> Response:
        state = self.supervisor.state_for(node)
        if state.health == HEALTH_DOWN:
            return self._down_response(state)
        approximate = False
        persistence: Optional[float] = None
        if state.health == HEALTH_HEALTHY and state.engine is not None:
            if state.breaker.allow():
                with obs.trace_span(
                    "shard.query", shard=str(state.shard_id), tier="exact"
                ):
                    started = self._clock()
                    try:
                        if state.injector is not None:
                            state.injector.on_query(state.shard_id, node)
                        persistence = state.engine.persistence(node)
                    except Exception:  # noqa: BLE001 - breaker accounting
                        state.breaker.record_failure(self._clock() - started)
                        approximate = True
                    else:
                        state.breaker.record_success(self._clock() - started)
            else:
                approximate = True
        else:
            approximate = True
        if approximate:
            self.registry.counter("service.approximate_answers").inc()
            persistence = state.sketch.persistence(node)
        if persistence is None:
            return self._json(
                200,
                {
                    "node": node,
                    "window": self.supervisor.window,
                    "status": "insufficient-history",
                    "persistence": None,
                    "anomalous": None,
                    "approximate": approximate,
                },
            )
        return self._json(
            200,
            {
                "node": node,
                "window": self.supervisor.window,
                "status": "ok",
                "persistence": persistence,
                "threshold": self.config.anomaly_threshold,
                "anomalous": persistence < self.config.anomaly_threshold,
                "approximate": approximate,
            },
        )

    # ------------------------------------------------------------------
    # Time travel (history store)
    # ------------------------------------------------------------------
    def _history_unavailable(self) -> Response:
        return self._json(
            404,
            {
                "error": "history store not configured "
                "(start the service with a history directory)",
            },
        )

    def _handle_history(self, node: str, params: Dict) -> Response:
        """``GET /history/<node>?window=N&k=K`` — who looked like the node.

        The node's *stored* signature at ``window`` (default: its home
        shard's latest) anchors a time-travel lookalike query answered by
        every shard's history store via the on-disk LSH index.  Shards
        without a usable store are skipped and the response is marked
        ``partial``, mirroring ``/similar``.
        """
        home = self.supervisor.state_for(node)
        if home.history is None:
            return self._history_unavailable()
        try:
            k = int(params.get("k", ["5"])[0])
        except ValueError:
            return self._json(400, {"error": "k must be an integer"})
        if k < 1:
            return self._json(400, {"error": f"k must be >= 1, got {k}"})
        raw_window = params.get("window", [None])[0]
        try:
            window = int(raw_window) if raw_window is not None else home.history.max_window()
        except ValueError:
            return self._json(400, {"error": "window must be an integer"})
        if window < 0:
            return self._json(
                404, {"error": "history store is empty", "node": node}
            )
        signature = home.history.signature(node, window)
        if signature is None:
            return self._json(
                404,
                {
                    "error": f"no stored signature for node {node!r} "
                    f"in window {window}",
                    "node": node,
                    "window": window,
                },
            )
        matches: List[Dict] = []
        skipped: List[int] = []
        trace = obs.current_trace()
        for state in self.supervisor.shards:
            if trace is not None and trace.expired():
                skipped.append(state.shard_id)
                continue
            if state.history is None:
                skipped.append(state.shard_id)
                continue
            with obs.trace_span("history.gather", shard=str(state.shard_id)):
                try:
                    hits = state.history.query(signature, window, k=k)
                except Exception:  # noqa: BLE001 - partial results beat a 500
                    skipped.append(state.shard_id)
                    continue
            matches.extend(
                {
                    "node": hit.owner,
                    "window": hit.window,
                    "distance": hit.distance,
                }
                for hit in hits
                if hit.owner != node
            )
        matches.sort(key=lambda item: (item["distance"], item["node"]))
        return self._json(
            200,
            {
                "node": node,
                "window": window,
                "k": k,
                "distance": self.config.distance,
                "partial": bool(skipped),
                "shards_skipped": skipped,
                "matches": matches[:k],
            },
        )

    def _handle_trajectory(self, node: str, params: Dict) -> Response:
        """``GET /trajectory/<node>?from=A&to=B`` — the node's stored
        signatures over windows ``[from, to)`` from its home shard's
        history store."""
        home = self.supervisor.state_for(node)
        if home.history is None:
            return self._history_unavailable()
        try:
            start = int(params["from"][0]) if "from" in params else None
            stop = int(params["to"][0]) if "to" in params else None
        except ValueError:
            return self._json(400, {"error": "from/to must be integers"})
        with obs.trace_span("trajectory.gather", shard=str(home.shard_id)):
            points = home.history.trajectory(node, start, stop)
        if not points:
            return self._json(
                404,
                {
                    "error": f"no stored windows for node {node!r}",
                    "node": node,
                    "shard": home.shard_id,
                },
            )
        return self._json(
            200,
            {
                "node": node,
                "shard": home.shard_id,
                "windows": [window for window, _ in points],
                "trajectory": [
                    {
                        "window": window,
                        "signature": {
                            str(dst): weight for dst, weight in signature.entries
                        },
                    }
                    for window, signature in points
                ],
            },
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _handle_status(self) -> Response:
        status = self.supervisor.status()
        status.update(
            {
                "uptime_s": round(self._clock() - self._started_at, 3),
                "queue": {
                    "depth": len(self.queue),
                    "capacity": self.queue.capacity,
                    "occupancy": round(self.queue.occupancy(), 4),
                    "accepted": self.queue.accepted,
                    "rejected": self.queue.rejected,
                    "shedding": self.queue.occupancy() >= self.config.shed_fraction,
                },
                "scheme": self.config.scheme,
                "k": self.config.k,
            }
        )
        healths = [shard["health"] for shard in status["shards"]]
        if all(health == HEALTH_DOWN for health in healths):
            status["service"] = HEALTH_DOWN
        elif all(health == HEALTH_HEALTHY for health in healths):
            status["service"] = HEALTH_HEALTHY
        else:
            status["service"] = HEALTH_DEGRADED
        return self._json(200, status)

    def merged_snapshot(self) -> Dict:
        """Frontend + all shard registries as one snapshot.

        This is the fleet-wide view ``/metrics`` exports and the bench
        harness reads: per-shard digests fold together exactly like
        counters (``breaker.latency_s`` keeps its per-shard label, so both
        the per-shard and the cross-shard views are derivable).
        """
        merged = obs.MetricsRegistry()
        merged.merge(self.registry.snapshot())
        merged.merge(self.supervisor.metrics_snapshot())
        return merged.snapshot()

    def _handle_metrics(self) -> Response:
        from repro.obs.export import to_prometheus

        return (
            200,
            {"Content-Type": obs.PROMETHEUS_CONTENT_TYPE},
            to_prometheus(self.merged_snapshot()),
        )

    def _handle_slo(self) -> Response:
        return self._json(200, self.slo.evaluate())

    def _handle_trace(self, trace_id: str) -> Response:
        if not trace_id:
            return self._json(404, {"error": "missing trace id"})
        record = self.traces.get(trace_id)
        if record is None:
            return self._json(
                404,
                {
                    "error": f"no stored trace {trace_id!r}",
                    "stored_traces": len(self.traces),
                    "capacity": self.traces.capacity,
                },
            )
        return self._json(200, record)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _down_response(self, state: ShardState) -> Response:
        self.registry.counter("service.down_answers").inc()
        return self._json(
            503,
            {
                "error": f"shard {state.shard_id} is down",
                "shard": state.shard_id,
                "health": HEALTH_DOWN,
                "last_error": state.last_error,
            },
            headers={"Retry-After": self._retry_after()},
        )

    @staticmethod
    def _json(
        status: int, payload: Dict, headers: Optional[Dict[str, str]] = None
    ) -> Response:
        merged = {"Content-Type": JSON_TYPE}
        if headers:
            merged.update(headers)
        return status, merged, json.dumps(payload, sort_keys=True) + "\n"


def _incoming_trace_id(headers: Optional[Dict[str, str]]) -> Optional[str]:
    """The caller's ``X-Trace-Id``, if any (header names case-insensitive)."""
    if not headers:
        return None
    for name, value in headers.items():
        if name.lower() == "x-trace-id" and value:
            return str(value).strip() or None
    return None


def parse_ingest_body(body: str) -> List[EdgeRecord]:
    """Parse an ingest payload into edge records.

    Accepts ``{"records": [...]}`` where each record is either a 4-list
    ``[time, src, dst, weight]`` or an object with those keys (``weight``
    defaults to 1).  Node ids are coerced to strings — the service contract.
    """
    document = json.loads(body)
    rows = document["records"]
    records: List[EdgeRecord] = []
    for row in rows:
        if isinstance(row, dict):
            time_value = float(row["time"])
            src = str(row["src"])
            dst = str(row["dst"])
            weight = float(row.get("weight", 1.0))
        else:
            if len(row) not in (3, 4):
                raise ValueError(f"record must have 3 or 4 fields, got {row!r}")
            time_value = float(row[0])
            src, dst = str(row[1]), str(row[2])
            weight = float(row[3]) if len(row) == 4 else 1.0
        records.append(EdgeRecord(time=time_value, src=src, dst=dst, weight=weight))
    return records
