"""Which program entry points the traced run wraps, and what each counts.

Span names are the layer names the benchmark reports (``ingest.parse``,
``graph.aggregate``, ``scheme.compute`` ...).  Counters are taken at the
same boundaries, from the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import os
from typing import Dict

from tracer import Tracer, inclusive_times, self_times, top_self_layer


def _count_len(counter: str):
    def hook(tracer, _args, _kwargs, result, _parent):
        tracer.add(counter, len(result))

    return hook


def _count_graph(tracer, _args, _kwargs, graph, _parent):
    tracer.add("graph.nodes", graph.num_nodes)
    tracer.add("graph.edges", graph.num_edges)


def _count_signatures(tracer, _args, _kwargs, result, parent):
    # compute_all may call compute per node: count only the outermost call.
    if parent == "scheme.compute":
        return
    tracer.add("scheme.signatures", len(result) if isinstance(result, dict) else 1)


def _count_checkpoint(tracer, args, _kwargs, entry, _parent):
    store = args[0]
    tracer.add("checkpoint.bytes", os.path.getsize(store.directory / entry.file))


def _count_append(tracer, _args, _kwargs, record, _parent):
    tracer.add("store.rows", record.rows)
    tracer.add("store.bytes", record.nbytes)


def _count_matching(tracer, args, _kwargs, result, _parent):
    tracer.add("matching.scanned", len(args[0]))
    tracer.add("matching.results", len(result))


def install_pipeline_shims(tracer: Tracer) -> None:
    """Wrap every layer a pipeline run passes through."""
    import repro.graph.builders as builders
    import repro.graph.stream as stream
    import repro.store.index as store_index
    import repro.store.segments as segments
    from repro.core.scheme import SignatureScheme
    from repro.graph.windows import SlidingWindowAggregator
    from repro.matching.index import SignatureIndex
    from repro.pipeline.checkpoint import CheckpointStore
    from repro.pipeline.runner import SignaturePipeline
    from repro.store.history import HistoryStore

    tracer.patch_function(stream, "read_edge_records", "ingest.parse", _count_len("ingest.records"))
    tracer.patch_function(builders, "aggregate_records", "graph.aggregate", _count_graph)
    tracer.patch_method(SlidingWindowAggregator, "advance", "graph.advance")
    tracer.patch_method(SignatureScheme, "compute", "scheme.compute", _count_signatures)
    tracer.patch_method(SignatureScheme, "compute_all", "scheme.compute", _count_signatures)
    tracer.patch_method(SignaturePipeline, "run", "pipeline.run")
    tracer.patch_method(CheckpointStore, "save_window", "checkpoint.save", _count_checkpoint)
    tracer.patch_method(HistoryStore, "append", "store.append", _count_append)
    tracer.patch_function(segments, "write_segment", "store.write")
    tracer.patch_function(segments, "encode_segment", "store.encode")
    tracer.patch_function(store_index, "band_hashes_for_rows", "store.band_hash")
    tracer.patch_method(HistoryStore, "query", "store.query", _count_len("store.results"))
    tracer.patch_function(
        store_index, "candidate_rows", "store.candidates", _count_len("store.candidates")
    )
    tracer.patch_method(SignatureIndex, "query", "matching.query", _count_matching)


def install_service_shims(tracer: Tracer) -> None:
    """Pipeline layers plus the service's ingest, query and obs paths."""
    install_pipeline_shims(tracer)
    import repro.service.frontend as frontend
    from repro.obs.digest import LatencyDigest
    from repro.obs.slo import SLOTracker
    from repro.obs.tracing import TraceStore
    from repro.service.shard import ShardEngine, SketchTier

    tracer.patch_method(frontend.ServiceFrontend, "pump", "service.pump")
    tracer.patch_method(SketchTier, "advance", "sketch.advance")
    tracer.patch_method(ShardEngine, "apply", "shard.apply")
    tracer.patch_method(
        ShardEngine, "query_index", "shard.index_build",
        keep=lambda args: args[0]._index is None,
    )
    tracer.patch_function(frontend, "parse_ingest_body", "frontend.parse_ingest")
    tracer.patch_method(LatencyDigest, "observe", "obs.request")
    tracer.patch_method(SLOTracker, "record", "obs.request")
    tracer.patch_method(TraceStore, "put", "obs.request")


def layer_figures(doc: Dict) -> Dict[str, float]:
    """Per-layer seconds (inclusive) and counts from one traced process's
    ``spans`` and ``counts``; layers it did not pass through read 0."""
    spans = [tuple(span) for span in doc["spans"]]
    inclusive = inclusive_times(spans)
    counts = doc["counts"]

    def ratio(numerator: str, denominator: str) -> float:
        below = counts.get(denominator, 0.0)
        return counts.get(numerator, 0.0) / below if below else 0.0

    figures = {f"{name}_s": inclusive.get(name, 0.0) for name in (
        "ingest.parse", "graph.aggregate", "graph.advance", "scheme.compute",
        "checkpoint.save", "store.append", "store.write", "store.encode",
        "store.band_hash", "store.query", "matching.query", "service.pump",
        "sketch.advance", "shard.apply", "frontend.parse_ingest", "shard.index_build",
        "obs.request",
    )}
    figures.update({name: counts.get(name, 0.0) for name in (
        "ingest.records", "graph.nodes", "graph.edges", "scheme.signatures",
        "checkpoint.bytes", "store.rows", "store.bytes",
    )})
    figures["pipeline.self_s"] = self_times(spans).get("pipeline.run", 0.0)
    figures["store.candidates_per_result"] = ratio("store.candidates", "store.results")
    figures["matching.scanned_per_result"] = ratio("matching.scanned", "matching.results")
    figures["trace.top_self_share"] = top_self_layer(spans)[1]
    return figures
