"""Load client for the service workload, run in its own process (stdlib only).

    python3 client.py <plan.json> <out.json>

The plan holds precomputed phases, each an open loop: every request has a
due time (seconds after ``plan["start_at"]``, on the ``time.monotonic``
clock the server shares).  ``connections`` worker threads take requests in
due order; a worker that is free early sleeps until the due time, one that
is late sends at once.  Latency is later counted from the due time, so a
stall also charges the requests queued behind it.  In a traced run a
separate thread switches the server's span shims on and off in alternate
slots.

Every request opens its own connection (the server closes it after each
response).  A request that raises or times out is recorded with status
``"error"``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple


def http_request(host: str, port: int, path: str, body: Optional[str] = None,
                 timeout: float = 10.0) -> Tuple[int, str, Optional[str]]:
    """One request on a fresh connection: GET, or POST of a JSON ``body``.
    Returns the status, the response text and its ``X-Request-Id``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        text = response.read().decode()
        return response.status, text, response.getheader("X-Request-Id")
    finally:
        conn.close()


class Client:
    def __init__(self, plan: Dict) -> None:
        self.host = plan["host"]
        self.port = plan["port"]
        self.timeout = plan["timeout_s"]
        self.records: List[list] = []

    def send(self, phase: str, kind: str, path: str, body: Optional[str], due: float) -> Optional[int]:
        sent = time.monotonic()
        try:
            status, _text, request_id = http_request(
                self.host, self.port, path, body, self.timeout)
        except (OSError, http.client.HTTPException):
            status, request_id = "error", None
        done = time.monotonic()
        self.records.append([phase, kind, due, sent, done, status, request_id])
        return status


def send_toggles(toggles: Dict, start_at: float) -> None:
    """Switch the server's span shims on (SIGUSR1) and off (SIGUSR2) on schedule."""
    for offset, on in toggles["at"]:
        wait = start_at + offset - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        os.kill(toggles["pid"], signal.SIGUSR1 if on else signal.SIGUSR2)


def run_open(client: Client, phase: Dict, start_at: float, connections: int) -> None:
    requests = phase["requests"]
    lock = threading.Lock()
    cursor = [0]
    toggles = phase.get("toggles")
    if toggles:
        threading.Thread(target=send_toggles, args=(toggles, start_at), daemon=True).start()

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] += 1
            offset, kind, path, body = requests[index]
            due = start_at + offset
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            client.send("open", kind, path, body, due)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def main(plan_path: str, out_path: str) -> None:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    client = Client(plan)
    for phase in plan["phases"]:
        start_at = max(plan["start_at"] + phase["start"], time.monotonic())
        run_open(client, phase, start_at, plan["connections"])
        # Phase boundaries in the output let the caller split the records.
        client.records.append(["mark", phase["name"], start_at, time.monotonic(), 0, 0, None])
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(client.records, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
