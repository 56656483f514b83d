"""The HTTP shell: a real server on an ephemeral port, end to end."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceConfig, ServiceServer, SignatureService


@pytest.fixture
def service(small_config, records_factory):
    service = SignatureService(small_config)
    service.ingest(records_factory(120, nodes=12, seed=5))
    service.pump()
    return service


def fetch(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def post(url, document):
    data = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(url, data=data, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestServer:
    def test_full_roundtrip(self, service):
        with ServiceServer(service, port=0) as server:
            status, document = fetch(f"{server.url}/status")
            assert status == 200
            assert document["service"] == "HEALTHY"
            assert document["window"] == 3

            node = next(iter(service.supervisor.shards[0].engine.signatures))
            status, document = fetch(f"{server.url}/signature/{node}")
            assert status == 200
            assert document["approximate"] is False

            status, document = fetch(f"{server.url}/similar/{node}?k=3")
            assert status == 200
            assert len(document["similar"]) <= 3

            status, document = post(
                f"{server.url}/ingest",
                {"records": [[500.0 + i, f"h{i % 6}", f"h{(i + 1) % 12}", 1.0]
                             for i in range(30)]},
            )
            assert status == 202
            assert document["accepted"] == 30
        # Exiting the context drains the queue: the window closed.
        assert service.supervisor.window == 4

    def test_unknown_route_over_http(self, service):
        with ServiceServer(service, port=0) as server:
            status, document = fetch(f"{server.url}/nope")
            assert status == 404

    def test_pump_thread_closes_windows(self, service, records_factory):
        with ServiceServer(service, port=0, pump_interval_s=0.01) as server:
            before = json.loads(
                urllib.request.urlopen(f"{server.url}/status", timeout=10)
                .read().decode("utf-8")
            )["window"]
            post(
                f"{server.url}/ingest",
                {
                    "records": [
                        [900.0 + i, f"h{i % 5}", f"h{(i + 2) % 12}", 1.0]
                        for i in range(30)
                    ]
                },
            )
            deadline = 100
            window = before
            while window == before and deadline:
                window = fetch(f"{server.url}/status")[1]["window"]
                deadline -= 1
            assert window == before + 1

    def test_handler_threads_inherit_event_log(self, service, tmp_path):
        """Handler threads get fresh contextvar contexts; the server must
        re-install the log captured at start() so request-path events
        (trace-stamped completions) reach it — regression for events lost
        in live serving mode."""
        from repro import obs

        path = tmp_path / "events.jsonl"
        log = obs.EventLog(path, run_id="http", level="debug")
        with log, obs.use_event_log(log):
            with ServiceServer(service, port=0) as server:
                request = urllib.request.Request(
                    f"{server.url}/status",
                    headers={"X-Trace-Id": "feed" * 8},
                )
                with urllib.request.urlopen(request, timeout=10) as response:
                    assert response.status == 200
        tagged = list(obs.read_events(path, trace_id="feed" * 8))
        assert any(e["event"] == "service.request.done" for e in tagged)
