"""Server launcher: one ``SignatureService`` behind ``ServiceServer`` in this process.

Run as ``python3 server.py <spec.json>`` by ``service.py``, with
``PYTHONPATH`` naming the program's ``src``.  Prints ``{"port": N}`` once
listening.  Besides serving, it stamps (in every run, traced or not):

* each accepted ingest batch: admission time, size and first record;
* each window the pump hands the shards: start and end of the apply, and
  when the queue gave it up;
* the queue depth after each admission.

With ``spec["trace"]`` the span shims are installed disabled; ``SIGUSR1``
enables them and ``SIGUSR2`` disables them again.  ``SIGTERM`` writes the stamps, spans and peak RSS to
``spec["dump"]`` and shuts the server down.
"""

from __future__ import annotations

import itertools
import json
import resource
import signal
import sys
import threading
import time
from pathlib import Path

from repro.service import ServiceConfig, ServiceServer, SignatureService
from repro.service.frontend import ServiceFrontend


def endpoint_of(method: str, path: str) -> str:
    if method == "POST":
        return "ingest"
    return path.strip("/").split("/", 1)[0].split("?", 1)[0] or "root"


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    service = SignatureService(ServiceConfig(**spec["config"]), history_dir=spec["history_dir"])
    frontend = service.frontend
    queue = frontend.queue
    stamps = {"offers": [], "windows": [], "takes": [], "depth_max": 0}
    offer_lock = threading.Lock()

    offer = queue.offer

    def stamped_offer(records):
        with offer_lock:
            ok = offer(records)
            if ok:
                first = records[0]
                stamps["offers"].append(
                    [time.monotonic(), len(records), [first.src, first.dst, first.time]]
                )
                stamps["depth_max"] = max(stamps["depth_max"], len(queue))
        return ok

    queue.offer = stamped_offer

    take = queue.take

    def stamped_take(count, force=False):
        bucket = take(count, force)
        if bucket is not None:
            stamps["takes"].append(time.monotonic())
        return bucket

    queue.take = stamped_take

    ingest = service.supervisor.ingest

    def stamped_ingest(bucket):
        started = time.monotonic()
        ingest(bucket)
        stamps["windows"].append([started, time.monotonic(), len(bucket)])

    service.supervisor.ingest = stamped_ingest

    tracer = None
    responds = []
    if spec["trace"]:
        from shims import install_service_shims
        from tracer import Tracer

        tracer = Tracer(enabled=False)
        install_service_shims(tracer)
        ids = itertools.count(1)
        respond = tracer.wrap(ServiceFrontend.respond, "frontend.respond")

        def traced_respond(self, method, path, body=None, headers=None):
            if not tracer.enabled:
                return respond(self, method, path, body, headers)
            tracer.request_id = next(ids)
            started = time.perf_counter()
            response = respond(self, method, path, body, headers)
            responds.append([
                response[1].get("X-Request-Id"), endpoint_of(method, path),
                time.perf_counter() - started,
            ])
            tracer.request_id = None
            return response

        ServiceFrontend.respond = traced_respond

    # Signal handlers run between bytecodes of the main thread, which may
    # hold a lock at that moment: they only append to lists, never lock.
    stopping = []
    toggles = []

    def on_toggle(signum, _frame):
        if tracer is not None:
            tracer.enabled = signum == signal.SIGUSR1
            toggles.append([time.monotonic(), tracer.enabled])

    signal.signal(signal.SIGUSR1, on_toggle)
    signal.signal(signal.SIGUSR2, on_toggle)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stopping.append(True))

    server = ServiceServer(service, port=0, pump_interval_s=spec["pump_interval_s"]).start()
    print(json.dumps({"port": server.port}), flush=True)
    while not stopping:
        time.sleep(0.05)

    dump = {
        "stamps": stamps,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.enabled = False
        dump.update(spans=tracer.spans, counts=dict(tracer.counts), responds=responds,
                    toggles=toggles, span_cost_s=tracer.span_cost())
    Path(spec["dump"]).write_text(json.dumps(dump))
    server.stop()


if __name__ == "__main__":
    main(sys.argv[1])
