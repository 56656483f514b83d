"""End-to-end benchmark of the signature pipeline and the signature service.

    python3 perfbench/run.py --workload pipeline-archive --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all`` of them in turn) on inputs generated from
``--seed``, checks the program's outputs against independent references,
and prints as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Before it, one line per workload
holds the full result with its provenance, also saved under
``perfbench/.results/``.  A failed check prints no metrics and exits with
status 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import RESULTS_DIR, BenchError, provenance, require_program  # noqa: E402

#: Every workload reports every one of these (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "records_per_s": "1/s",
    "stored_bytes_per_signature": "B",
    "visible_lag_p50_ms": "ms",
    "visible_lag_tail_ms": "ms",
    "similar_p50_ms": "ms",
    "similar_tail_ms": "ms",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}

#: The traced run reports every one of these; a layer a workload does not
#: pass through reads 0 there (BENCHMARK.json ``per_layer``).
PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.records": "count",
    "graph.aggregate_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.advance_s": "s",
    "scheme.compute_s": "s",
    "scheme.signatures": "count",
    "shard.dirty_share": "share",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "B",
    "pipeline.self_s": "s",
    "store.append_s": "s",
    "store.write_s": "s",
    "store.encode_s": "s",
    "store.band_hash_s": "s",
    "store.rows": "count",
    "store.bytes": "B",
    "store.query_s": "s",
    "store.candidates_per_result": "count",
    "service.pump_s": "s",
    "service.pump_busy_share": "share",
    "service.queue_wait_s": "s",
    "service.queue_depth_max": "count",
    "sketch.advance_s": "s",
    "shard.apply_s": "s",
    "frontend.parse_ingest_s": "s",
    "frontend.respond_similar_s": "s",
    "frontend.respond_signature_s": "s",
    "frontend.respond_anomaly_s": "s",
    "frontend.respond_history_s": "s",
    "frontend.respond_ingest_s": "s",
    "shard.index_build_s": "s",
    "matching.query_s": "s",
    "matching.scanned_per_result": "count",
    "http.overhead_s": "s",
    "obs.request_s": "s",
    "client.lateness_tail_ms": "ms",
    "client.status_200": "count",
    "client.status_202": "count",
    "client.status_404": "count",
    "client.status_429": "count",
    "client.status_5xx": "count",
    "client.status_error": "count",
    "trace.overhead_share": "share",
    "trace.span_cost_share": "share",
    "trace.top_self_share": "share",
}


def workload_modules() -> Dict:
    """Workload name -> the module that runs it."""
    import pipelines
    import service

    return {name: module for module in (pipelines, service) for name in module.WORKLOADS}


def workload_module(name: str):
    module = workload_modules().get(name)
    if module is None:
        raise BenchError(f"unknown workload {name!r}")
    return module, module.WORKLOADS[name]


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload; returns its saved record plus the contract fields."""
    module, params = workload_module(workload)
    stamp = provenance(workload, seed, seconds, trace, params)
    result = module.run(workload, seed, seconds, trace)
    if trace:
        layers = result["per_layer"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        detail = result["detail"]
        metrics = {name: {"value": float(detail[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise BenchError(f"non-finite metrics {bad}")
    if not result["correct"]:
        metrics = {}
    record = {"provenance": stamp, "correct": result["correct"], "metrics": metrics,
              "detail": result["detail"], "attempted": int(result["attempted"]),
              "failed": int(result["failed"])}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stamp_text = time.strftime("%Y%m%dT%H%M%S")
    name = f"{workload}-seed{seed}-trace{int(trace)}-{stamp_text}-{os.getpid()}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1, default=str))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so every child process is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    try:
        require_program()
        names = list(workload_modules()) if args.workload == "all" else [args.workload]
        records = []
        for name in names:
            record = run_one(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(record, default=str), flush=True)
            records.append((name, record))
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2

    correct = all(record["correct"] for _name, record in records)
    if len(records) == 1:
        metrics = records[0][1]["metrics"]
    else:
        metrics = {f"{name}/{metric}": value for name, record in records
                   for metric, value in record["metrics"].items()}
    line = {
        "correct": correct,
        "attempted": sum(record["attempted"] for _name, record in records),
        "failed": sum(record["failed"] for _name, record in records),
        "metrics": metrics if correct else {},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
