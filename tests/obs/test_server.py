"""Tests for the HTTP plane: the lifecycle every :class:`RouteServer`
keeps (run over both servers), the ``ObsServer`` routes, and
scrape-during-update.

The concurrency test is the acceptance check for the live layer: a thread
hammering ``/metrics`` while a fig1 run mutates the registry must always
receive parseable exposition text with internally consistent summaries
(snapshots are taken under the registry lock, so a scrape can never see a
half-updated digest).
"""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, ObsServer
from repro.service import ServiceConfig, ServiceServer, SignatureService


def get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers, response.read().decode("utf-8")


@pytest.fixture
def registry():
    registry = obs.MetricsRegistry()
    registry.counter("pipeline.windows", mode="exact").inc(2)
    registry.gauge("parallel.workers").set(3)
    registry.digest("latency").observe(0.5)
    return registry


@pytest.fixture
def server(registry):
    store = obs.TimeSeriesStore()
    store.sample(registry, t=1.0)
    with ObsServer(registry, store=store, meta={"command": "test"}) as server:
        yield server


class TestRoutes:
    def test_metrics_is_valid_prometheus(self, server):
        status, headers, body = get(f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert obs.validate_prometheus(body) == []
        assert "repro_pipeline_windows_total" in body

    def test_healthz(self, server):
        status, _headers, body = get(f"{server.url}/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["requests"] >= 1
        assert health["series"] > 0

    def test_snapshot_json_is_schema_valid(self, server):
        _status, _headers, body = get(f"{server.url}/snapshot.json")
        payload = json.loads(body)
        assert payload["meta"] == {"command": "test"}
        assert obs.validate_payload(payload) == []

    def test_series_json(self, server):
        _status, _headers, body = get(f"{server.url}/series.json")
        series = json.loads(body)["series"]
        assert series["parallel.workers"] == [[1.0, 3.0]]

    def test_series_json_without_store(self, registry):
        with ObsServer(registry) as server:
            _status, _headers, body = get(f"{server.url}/series.json")
            assert json.loads(body) == {"series": {}}

    def test_unknown_route_404s(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(f"{server.url}/nope")
        assert excinfo.value.code == 404
        assert "/metrics" in excinfo.value.read().decode()

    def test_scrapes_are_counted_on_the_registry(self, registry, server):
        get(f"{server.url}/metrics")
        assert registry.counter_value("obs.server.requests", route="/metrics") >= 1

    def test_post_is_not_allowed(self, server):
        request = urllib.request.Request(f"{server.url}/metrics", data=b"x", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405


class _LifecycleSuite:
    """The socket lifecycle both servers inherit from ``RouteServer``.

    Subclasses provide ``make_server`` (a factory for an unstarted server)
    and the server's ``event_prefix``.
    """

    event_prefix = ""

    def test_ephemeral_port_bound_and_reported(self, make_server):
        server = make_server()
        server.start()
        try:
            assert server.port != 0
            assert server.running
        finally:
            server.stop()
        assert not server.running

    def test_double_start_rejected(self, make_server):
        with make_server() as server:
            with pytest.raises(RuntimeError):
                server.start()

    def test_stop_is_idempotent(self, make_server):
        server = make_server().start()
        server.stop()
        server.stop()

    def test_lifecycle_logged(self, make_server):
        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="r", clock=lambda: 0.0)
        with obs.use_event_log(log):
            with make_server():
                pass
        events = [json.loads(line)["event"] for line in buffer.getvalue().splitlines()]
        assert [e for e in events if e.startswith(self.event_prefix)] == [
            f"{self.event_prefix}.started",
            f"{self.event_prefix}.stopped",
        ]

    def test_internal_error_answers_500(self, make_server, monkeypatch):
        server = make_server()

        def explode(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(server, "respond", explode)
        with server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(f"{server.url}/metrics")
            assert excinfo.value.code == 500
            assert "kaboom" in excinfo.value.read().decode()

    def test_handler_threads_inherit_event_log(self, make_server, monkeypatch):
        """Handler threads get fresh contextvar contexts; the server must
        re-install the log captured at start() so events emitted while
        answering a request reach it."""
        server = make_server()
        route = server.respond

        def logged(*args, **kwargs):
            obs.emit("test.route", level="info")
            return route(*args, **kwargs)

        monkeypatch.setattr(server, "respond", logged)
        buffer = io.StringIO()
        log = obs.EventLog(buffer, run_id="r", clock=lambda: 0.0)
        with obs.use_event_log(log):
            with server:
                get(f"{server.url}/metrics")
        events = [json.loads(line)["event"] for line in buffer.getvalue().splitlines()]
        assert "test.route" in events


class TestLifecycle(_LifecycleSuite):
    event_prefix = "obs.server"

    @pytest.fixture
    def make_server(self, registry):
        return lambda: ObsServer(registry)


class TestServiceServerLifecycle(_LifecycleSuite):
    event_prefix = "service.server"

    @pytest.fixture
    def make_server(self):
        config = ServiceConfig(num_shards=1, window_records=8, queue_capacity=64, k=3)
        return lambda: ServiceServer(SignatureService(config), port=0)


class TestScrapeDuringUpdate:
    """Satellite: concurrent scrape while a real experiment mutates the
    registry must always yield parseable, internally consistent text."""

    def test_fig1_run_under_scrape_hammer(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig1_properties import run_fig1

        registry = obs.MetricsRegistry()
        scrapes = []
        errors = []
        done = threading.Event()

        with ObsServer(registry) as server:
            def hammer():
                while not done.is_set():
                    try:
                        _status, _headers, body = get(f"{server.url}/metrics")
                    except Exception as error:  # noqa: BLE001 - recorded below
                        errors.append(repr(error))
                        return
                    scrapes.append(body)

            scraper = threading.Thread(target=hammer)
            scraper.start()
            try:
                with obs.use_registry(registry):
                    run_fig1("network", ExperimentConfig(scale="small"))
            finally:
                done.set()
                scraper.join()
            final = get(f"{server.url}/metrics")[2]

        assert not errors, f"scrape failed mid-run: {errors}"
        assert len(scrapes) > 0
        for body in scrapes + [final]:
            problems = obs.validate_prometheus(body)
            assert problems == [], f"inconsistent scrape: {problems}"
        # The run actually produced kernel traffic visible to scrapers.
        assert "repro_kernel_calls_total" in final

    def test_direct_mutation_under_scrape_hammer(self):
        """Cheaper variant hammering a digest + counters directly."""
        registry = obs.MetricsRegistry()
        done = threading.Event()
        bad = []

        def mutate():
            digest = registry.digest("work")
            counter = registry.counter("work.calls")
            step = 0
            while not done.is_set():
                digest.observe((step % 7) / 5.0)
                counter.inc()
                step += 1

        with ObsServer(registry) as server:
            writer = threading.Thread(target=mutate)
            writer.start()
            try:
                for _ in range(30):
                    body = get(f"{server.url}/metrics")[2]
                    problems = obs.validate_prometheus(body)
                    if problems:
                        bad.append(problems)
            finally:
                done.set()
                writer.join()
        assert bad == []
