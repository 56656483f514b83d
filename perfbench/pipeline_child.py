"""One pipeline run in a fresh process: CSV -> signatures -> checkpoint (+ archive).

Run as ``python3 pipeline_child.py <spec.json>`` by ``pipelines.py``, with
``PYTHONPATH`` naming the program's ``src``.  It records the monotonic
time at which the pipeline was constructed (the end of set-up), runs it,
answers reads from the persisted output, times the host-speed reference
before, between and after those (``common.reference_work``), and writes
one JSON document to ``spec["result"]``.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

from common import dir_bytes, reference_times
from repro.core.distances import get_distance
from repro.matching.index import SignatureIndex
from repro.pipeline import CheckpointStore, CsvRecordSource, PipelineConfig, SignaturePipeline
from repro.store.history import HistoryStore

def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    tracer = None
    if spec["trace"]:
        from shims import install_pipeline_shims
        from tracer import Tracer

        tracer = Tracer()
        install_pipeline_shims(tracer)

    out = Path(spec["out"])
    shutil.rmtree(out, ignore_errors=True)
    history_dir = out / "history" if spec["history"] else None
    visible = []
    pipeline = SignaturePipeline(
        CsvRecordSource(spec["csv"]),
        CheckpointStore(out / "checkpoint"),
        PipelineConfig(
            scheme=spec["scheme"],
            k=spec["k"],
            scheme_params=spec["scheme_params"],
            history_dir=str(history_dir) if history_dir else None,
        ),
        hooks=[lambda window, _report: visible.append(time.perf_counter())],
    )
    constructed = time.monotonic()
    reference = reference_times()

    started = time.perf_counter()
    result = pipeline.run()
    run_s = time.perf_counter() - started
    report = result.report
    reference += reference_times()

    # Reads come from the persisted output, as a consumer would make them:
    # the run's in-memory signatures are dropped first.
    del result
    gc.collect()
    read_started = time.perf_counter()
    reads = read_phase(spec, out, history_dir, len(report.windows))
    reads_s = time.perf_counter() - read_started
    reference += reference_times()
    degraded = sum(w.num_records for w in report.windows if w.mode == "degraded")
    document = {
        "constructed_mono": constructed,
        "run_s": run_s,
        "records_accepted": report.records_accepted,
        "records_rejected": report.records_rejected,
        "records_degraded": degraded,
        "windows": len(report.windows),
        "signatures": sum(w.num_signatures for w in report.windows),
        "stored_bytes": dir_bytes(out),
        "visible_s": [t - started for t in visible],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_s": sorted(reference)[len(reference) // 2],
        **reads,
    }
    if tracer is not None:
        tracer.enabled = False
        document["spans"] = tracer.spans
        document["counts"] = dict(tracer.counts)
        document["span_cost_share"] = (
            len(tracer.spans) * tracer.span_cost() / (run_s + reads_s))
    Path(spec["result"]).write_text(json.dumps(document))


def read_phase(spec, out: Path, history_dir, num_windows: int) -> dict:
    """Answer reads from the persisted output, as a consumer of it would.

    ``similar``: the k nearest signatures of a node in the last window, by
    the matching index the service's shards use.  ``query``: a question
    about a past window — a lookalike query against the archive when there
    is one, else that window read back from the checkpoint store.  Every
    run of a workload asks the same questions in the same order, so the
    caller can compare each question's time across runs.
    """
    rng = random.Random(spec["read_seed"])
    store = CheckpointStore(out / "checkpoint")
    last, _meta = store.load_window(num_windows - 1)
    index = SignatureIndex(get_distance("sdice"))
    index.add_all(last.values())
    owners = sorted(last)
    similar_ms = []
    for owner in rng.sample(owners, min(spec["similar_reads"], len(owners))):
        t0 = time.perf_counter()
        index.query(last[owner], k=5, exclude_self=True)
        similar_ms.append(1000.0 * (time.perf_counter() - t0))

    query_ms = []
    history = HistoryStore(history_dir) if history_dir else None
    for _ in range(spec["query_reads"]):
        window = rng.randrange(num_windows)
        owner = rng.choice(owners)
        if history is not None:
            signature = history.signature(owner, window)
            while signature is None:
                owner = rng.choice(owners)
                signature = history.signature(owner, window)
            t0 = time.perf_counter()
            history.query(signature, window, k=5)
        else:
            t0 = time.perf_counter()
            store.load_window(window)[0].get(owner)
        query_ms.append(1000.0 * (time.perf_counter() - t0))
    return {"similar_ms": similar_ms, "query_ms": query_ms}


if __name__ == "__main__":
    main(sys.argv[1])
