"""The pipeline workloads: repeated fresh-process runs, then output checks.

Every timing is a median over the run's pipeline processes: per segment of
``run()`` between window checkpoints for throughput and visible lag, per
question for the reads, per process start for set-up.  All processes do
the same work on the same input, so each median is taken over repeats of
one piece of work.  Each process's times are first scaled to a fixed host
speed by a reference task it times next to its work
(``common.reference_work``): on a shared host the speed of memory-heavy
work drifts by up to 1.5x for half a minute to several minutes at a time,
with or without steal, and the reference slows with it.  Processes under
much steal are left out (``common.quiet_mask``).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import checks
from common import (
    BENCH_DIR,
    REFERENCE_S,
    SRC,
    WORK_DIR,
    BenchError,
    child_env,
    cpu_ticks,
    enterprise_trace,
    median,
    percentile,
    quiet_mask,
    read_trace,
    steal_share,
    tail_percentile,
)
from shims import layer_figures
from tracer import top_self_layer

#: Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "pipeline-archive": {
        "generator": {"num_hosts": 400, "num_external": 8000, "num_services": 30, "num_windows": 8},
        "scheme": "tt",
        "scheme_params": {},
        "k": 10,
        "history": True,
        "similar_reads": 200,
        "query_reads": 200,
        "child_s": 2.5,
        "check_owners": 25,
    },
    "pipeline-walk": {
        "generator": {"num_hosts": 240, "num_external": 5000, "num_services": 30, "num_windows": 8},
        "scheme": "rwr",
        "scheme_params": {"reset_probability": 0.1, "max_hops": 3},
        "k": 10,
        "history": False,
        "similar_reads": 200,
        "query_reads": 200,
        "child_s": 2.5,
        "check_owners": 8,
    },
}

CHILD = BENCH_DIR / "pipeline_child.py"
CHILD_TIMEOUT_S = 120
#: Fewest pipeline processes a run makes, whatever ``--seconds``.
MIN_RUNS = 4


def planned_runs(config: Dict, seconds: float) -> int:
    """Pipeline processes in a run: as many as ``--seconds`` holds at the
    workload's nominal ``child_s`` each, fixed by the arguments alone."""
    return max(MIN_RUNS, round(seconds / config["child_s"]))


def run_child(spec: Dict, index: int) -> Dict:
    work = WORK_DIR / spec["workload"]
    work.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, out=str(work / "out"), result=str(work / f"result-{index}.json"))
    spec_path = work / f"spec-{index}.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(spec_path)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"pipeline run failed:\n{proc.stderr[-2000:]}")
    document = json.loads(Path(spec["result"]).read_text())
    document["setup_s"] = document["constructed_mono"] - spawned
    return document


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    config = WORKLOADS[workload]
    csv_path = enterprise_trace(workload, config["generator"], seed)
    base = {
        "workload": workload,
        "csv": str(csv_path),
        "scheme": config["scheme"],
        "scheme_params": config["scheme_params"],
        "k": config["k"],
        "history": config["history"],
        "similar_reads": config["similar_reads"],
        "query_reads": config["query_reads"],
    }
    runs: List[Dict] = []
    traced: List[Dict] = []
    # A traced run alternates traced and untraced processes, so host-speed
    # drift falls on both sides of the overhead comparison.
    ticks = cpu_ticks()
    for index in range(planned_runs(config, seconds)):
        traced_child = trace and index % 2 == 1
        before = cpu_ticks()
        doc = run_child(dict(base, trace=traced_child, read_seed=seed), index)
        doc["steal_share"] = steal_share(before, cpu_ticks())
        (traced if traced_child else runs).append(doc)
    steal = steal_share(ticks, cpu_ticks())
    # Timings come from the runs the host left alone (see quiet_mask).
    quiet = [d for d, keep in zip(runs, quiet_mask([d["steal_share"] for d in runs])) if keep]

    last_out = WORK_DIR / workload / "out"
    problems = check_outputs(config, csv_path, last_out, seed)
    detail = summarize(quiet)
    detail["host_steal_share"] = steal
    detail["runs"] = len(runs)
    detail["quiet_runs"] = len(quiet)
    detail["traced_runs"] = len(traced)
    detail["checked"] = problems or "ok"
    attempted = sum(d["records_accepted"] + d["records_rejected"] for d in runs + traced)
    failed = sum(d["records_rejected"] + d["records_degraded"] for d in runs + traced)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "detail": detail,
    }
    if trace:
        result["per_layer"] = per_layer(traced, runs, detail)
    return result


def median_each(series: List[List[float]]) -> List[float]:
    """Element-wise median of equally long series (one per run)."""
    return [median(values) for values in zip(*series)]


def summarize(runs: List[Dict]) -> Dict:
    # Each process's times are scaled to the host speed of REFERENCE_S by
    # the reference work it timed.
    def timed(d: Dict, values: List[float]) -> List[float]:
        return [v * REFERENCE_S / d["reference_s"] for v in values]

    # A run is timed in segments: start -> window 0 checkpointed, window to
    # window, last window -> run() returns.  Every run does the same work in
    # each segment; the median time of each segment, added up, is the run's
    # typical time.
    segments = median_each([
        timed(d, [b - a for a, b in zip([0.0] + d["visible_s"], d["visible_s"] + [d["run_s"]])])
        for d in runs
    ])
    run_s = sum(segments)
    visible = [1000.0 * sum(segments[:w + 1]) for w in range(len(segments) - 1)]
    # Per question: every run asks the same ones in the same order.
    similar = median_each([timed(d, d["similar_ms"]) for d in runs])
    query = median_each([timed(d, d["query_ms"]) for d in runs])
    tails = {"similar": tail_percentile(len(similar)), "query": tail_percentile(len(query))}
    read = sum(d["records_accepted"] + d["records_rejected"] for d in runs)
    lost = sum(d["records_rejected"] + d["records_degraded"] for d in runs)
    return {
        "setup_s": median([timed(d, [d["setup_s"]])[0] for d in runs]),
        "peak_rss_mb": median([d["rss_mb"] for d in runs]),
        "ok_share": 1.0 - lost / read,
        "records_per_s": runs[0]["records_accepted"] / run_s,
        "stored_bytes_per_signature": runs[-1]["stored_bytes"] / runs[-1]["signatures"],
        "visible_lag_p50_ms": median(visible),
        # A run has only as many windows as the trace: the tail is the last
        # window, i.e. the whole trace visible.
        "visible_lag_tail_ms": max(visible),
        "similar_p50_ms": median(similar),
        "similar_tail_ms": percentile(similar, tails["similar"]),
        "query_p50_ms": median(query),
        "query_tail_ms": percentile(query, tails["query"]),
        "tail_percentiles": dict(tails, visible_lag=100.0),
        "samples": {"visible_lag": len(visible), "similar": len(similar), "query": len(query)},
        "runs_s": [round(d["run_s"], 4) for d in runs],
        "setups_s": [round(d["setup_s"], 4) for d in runs],
        "references_s": [round(d["reference_s"], 5) for d in runs],
    }


def per_layer(traced: List[Dict], untraced: List[Dict], detail: Dict) -> Dict:
    """Median over traced runs of each layer's time and counts per run.

    The overhead compares the median speed of the traced runs with that of
    the untraced ones; runs alternate, so both sides see the same host.  The
    noise is the gap between the medians of alternate untraced runs: an
    overhead smaller than it is not resolved by this run.
    """
    figures = [layer_figures(doc) for doc in traced]
    layers = {name: median([f[name] for f in figures]) for name in figures[0]}
    untraced_speeds, traced_speeds = (
        [d["records_accepted"] / d["run_s"] for d in side] for side in (untraced, traced)
    )
    layers["trace.overhead_share"] = 1.0 - median(traced_speeds) / median(untraced_speeds)
    layers["trace.span_cost_share"] = median([doc["span_cost_share"] for doc in traced])
    noise = abs(1.0 - median(untraced_speeds[0::2]) / median(untraced_speeds[1::2]))
    detail["overhead_noise_share"] = noise
    # Tracing cannot make the program faster: a negative reading is noise.
    detail["overhead_resolved"] = layers["trace.overhead_share"] > noise
    tops = [top_self_layer([tuple(span) for span in doc["spans"]])[0] for doc in traced]
    detail["top_self_layer"] = max(set(tops), key=tops.count)
    return layers


def check_outputs(config: Dict, csv_path: Path, out: Path, seed: int) -> List[str]:
    """Compare the last run's checkpoint (and archive) with the references."""
    sys.path.insert(0, str(SRC))
    from repro.pipeline import CheckpointStore
    from repro.store.history import HistoryStore

    problems: List[str] = []
    windows = checks.window_adjacency(read_trace(csv_path))
    store = CheckpointStore(out / "checkpoint")
    history = HistoryStore(out / "history") if config["history"] else None
    if config["scheme"] == "rwr":
        params = config["scheme_params"]
        identity = checks.identity_rwr_equals_tt(
            windows[0], checks.sample_owners(windows[0], 10, seed)
        )
        if identity:
            problems.append(identity)
    for window in sorted(windows):
        adjacency = windows[window]
        signatures, _meta = store.load_window(window)
        expected_owners = {src for src, dsts in adjacency.items() if sum(dsts.values()) > 0}
        if set(signatures) != expected_owners:
            problems.append(f"window {window}: signature owners differ from the trace's senders")
            continue
        for owner in checks.sample_owners(adjacency, config["check_owners"], seed + window):
            if config["scheme"] == "rwr":
                reference = checks.rwr_reference(
                    adjacency, owner, params["reset_probability"], params["max_hops"]
                )
            else:
                reference = checks.tt_reference(adjacency, owner)
            why = checks.compare_top_k(signatures[owner].entries, reference, config["k"])
            if why:
                problems.append(f"window {window}, owner {owner!r}: {why}")
        if history is not None:
            archived = history.load_window(window)
            if archived.keys() != signatures.keys() or any(
                archived[o].entries != signatures[o].entries for o in signatures
            ):
                problems.append(f"window {window}: archive and checkpoint disagree")
    if len(store.scan().good) != len(windows):
        problems.append("checkpoint holds a different number of windows than the trace")
    return problems[:20]
